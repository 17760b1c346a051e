#include "core/meeting_wire.h"

#include <utility>

#include "common/check.h"

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

  if (!decoded.pages.empty()) {
    std::vector<graph::PageId> pages;
    std::vector<std::vector<graph::PageId>> successors;
    pages.reserve(decoded.pages.size());
    successors.reserve(decoded.pages.size());
    result.scores.reserve(decoded.pages.size());
    for (wire::ScoreListPage& record : decoded.pages) {
      pages.push_back(record.page);
      successors.push_back(std::move(record.successors));
    }
    auto fragment = std::make_shared<graph::Subgraph>(
        graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors)));
    // The page table arrives in ascending-page order, which is exactly the
    // rebuilt fragment's local-index order; still map defensively.
    result.scores.assign(fragment->NumLocalPages(), 0.0);
    for (const wire::ScoreListPage& record : decoded.pages) {
      const graph::Subgraph::LocalIndex i = fragment->LocalIndexOf(record.page);
      JXP_CHECK_NE(i, graph::Subgraph::kNotLocal);
      result.scores[i] = record.score;
    }
    result.fragment = std::move(fragment);
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
