#include "core/meeting_wire.h"

#include <utility>

namespace jxp {
namespace core {

std::vector<uint8_t> EncodeMeetingMessage(const graph::Subgraph& fragment,
                                          std::span<const double> scores,
                                          const WorldNode& world,
                                          const synopses::HashSketch* sketch,
                                          const wire::EncodeOptions& options) {
  std::vector<uint8_t> out;
  wire::EncodeScoreList(fragment, scores, options, out);

  // The world node already stores the codec's page-sorted layout.
  wire::EncodeWorldKnowledge(
      {world.pages(), world.out_degrees(), world.scores(), world.target_offsets(),
       world.all_targets(), world.dangling_pages(), world.dangling_scores()},
      out);

  if (sketch != nullptr) wire::EncodeSynopsis(*sketch, out);
  return out;
}

DecodedMeetingMessage DecodeMeetingMessage(std::span<const uint8_t> bytes) {
  wire::DecodedMeeting decoded = wire::DecodeMeeting(bytes);
  DecodedMeetingMessage result;
  result.bytes_consumed = decoded.bytes_consumed;
  result.resync_offset = decoded.resync_offset;
  result.error = std::move(decoded.error);

  // The page table arrives page-sorted with sorted successor lists, which
  // is the fragment's own layout: adopt the arrays as they are.
  wire::DecodedPageTable& table = decoded.page_table;
  if (!table.pages.empty()) {
    result.scores = std::move(table.scores);
    result.fragment = std::make_shared<graph::Subgraph>(graph::Subgraph::FromSortedCsr(
        std::move(table.pages), std::move(table.successor_offsets),
        std::move(table.successors)));
  }

  wire::DecodedWorld& world = decoded.world;
  result.world = WorldNode::FromArrays(
      std::move(world.pages), std::move(world.out_degrees), std::move(world.scores),
      std::move(world.target_offsets), std::move(world.targets),
      std::move(world.dangling_pages), std::move(world.dangling_scores));

  if (decoded.has_synopsis) {
    result.sketch = std::make_shared<synopses::HashSketch>(
        synopses::HashSketch::FromBitmaps(decoded.synopsis_seed,
                                          std::move(decoded.synopsis_bitmaps)));
  }
  return result;
}

}  // namespace core
}  // namespace jxp
