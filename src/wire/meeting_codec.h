#ifndef JXP_WIRE_MEETING_CODEC_H_
#define JXP_WIRE_MEETING_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/subgraph.h"
#include "synopses/hash_sketch.h"
#include "wire/wire_format.h"

namespace jxp {
namespace wire {

/// Encode/Decode pairs for the three meeting payload types (DESIGN.md §6g).
/// This layer speaks graph/synopses vocabulary only; the core layer bridges
/// WorldNode and PeerView to/from the plain records here (core depends on
/// wire, never the reverse).

/// Encoder options.
struct EncodeOptions {
  /// Page-table records per kScoreChunk frame. Smaller chunks lose less to
  /// a torn transfer but pay 16 header bytes each; 64 keeps the overhead
  /// at a fraction of a byte per page.
  size_t pages_per_chunk = 64;
};

/// Encode-side world knowledge, viewed in place in the flat page-sorted
/// layout core::WorldNode stores: entry i is pages[i] with out_degrees[i],
/// scores[i] and the targets [target_offsets[i], target_offsets[i+1]) of
/// `targets` (sorted unique ascending); dangling records are
/// dangling_pages[i] / dangling_scores[i]. An empty view has empty spans
/// throughout (target_offsets may then be empty or {0}).
struct WorldKnowledgeView {
  std::span<const graph::PageId> pages;
  std::span<const uint32_t> out_degrees;
  std::span<const double> scores;
  std::span<const uint32_t> target_offsets;
  std::span<const graph::PageId> targets;
  std::span<const graph::PageId> dangling_pages;
  std::span<const double> dangling_scores;
};

/// Decode-side page table, as flat arrays in the layout
/// graph::Subgraph::FromSortedCsr adopts by move: pages strictly ascending
/// (the sender's local-index order), page i's successors are
/// successors[successor_offsets[i], successor_offsets[i+1]) strictly
/// ascending, and scores[i] is its score after the wire's round-down float
/// quantization, widened to double exactly.
struct DecodedPageTable {
  std::vector<graph::PageId> pages;
  std::vector<double> scores;
  std::vector<uint64_t> successor_offsets = {0};
  std::vector<graph::PageId> successors;
};

/// Decode-side world knowledge, in the layout of WorldKnowledgeView (so the
/// core layer adopts the arrays without re-sorting). Scores are the
/// sender's after the wire's round-down float quantization, widened to
/// double exactly.
struct DecodedWorld {
  std::vector<graph::PageId> pages;
  std::vector<uint32_t> out_degrees;
  std::vector<double> scores;
  std::vector<uint32_t> target_offsets = {0};
  std::vector<graph::PageId> targets;
  std::vector<graph::PageId> dangling_pages;
  std::vector<double> dangling_scores;
};

/// Everything the decoder recovered from the (possibly truncated or
/// corrupted) byte stream of one meeting message.
struct DecodedMeeting {
  /// The page table. May be a prefix of the sender's table when the stream
  /// was cut or a later chunk was rejected.
  DecodedPageTable page_table;
  /// World knowledge; empty when the world frame was absent, lost, or the
  /// sender's world node was empty (an empty world node is not framed).
  DecodedWorld world;
  /// Page sketch; present iff a synopsis frame arrived intact.
  bool has_synopsis = false;
  uint64_t synopsis_seed = 0;
  std::vector<uint64_t> synopsis_bitmaps;
  /// Bytes of fully-decoded frames (what the receiver actually consumed).
  size_t bytes_consumed = 0;
  /// Where the next frame would start if the caller wants to reuse the
  /// stream after a salvaged decode. When the rejected frame was still
  /// syntactically delimited — header magic/version/length valid and the
  /// checksum matching, i.e. only the *payload semantics* were rejected —
  /// this points one past that frame, so the caller can resynchronize and
  /// decode what follows as a fresh message. When the frame header itself
  /// was untrustworthy (bad magic, corrupt length, checksum mismatch) no
  /// boundary is knowable and this equals bytes_consumed. Equals
  /// bytes_consumed on a fully-clean decode too.
  size_t resync_offset = 0;
  size_t frames_decoded = 0;
  /// Why decoding stopped early; OK when the whole buffer decoded. At most
  /// one frame is rejected — everything after a bad frame is undecodable
  /// (frame boundaries cannot be trusted past a corrupt length field).
  Status error = Status::OK();
};

/// Appends the page-table frames (kScoreChunk) for `fragment` + `scores`
/// (by local index) to `out`.
void EncodeScoreList(const graph::Subgraph& fragment, std::span<const double> scores,
                     const EncodeOptions& options, std::vector<uint8_t>& out);

/// Appends one kWorldKnowledge frame. Entry and dangling pages must be
/// strictly ascending; entries need out_degree >= 1 and
/// 1 <= |targets| <= out_degree. Appends nothing when `world` is empty.
void EncodeWorldKnowledge(const WorldKnowledgeView& world, std::vector<uint8_t>& out);

/// Appends one kSynopsis frame.
void EncodeSynopsis(const synopses::HashSketch& sketch, std::vector<uint8_t>& out);

/// Decodes the longest valid frame prefix of `data` (the fault-tolerant
/// entry point: a truncated or bit-flipped transfer yields the intact
/// prefix plus a non-OK `error`). Strict per-frame validation: out-of-range
/// counts, non-finite or negative scores, non-ascending ids, duplicate or
/// out-of-order frames all reject the frame.
DecodedMeeting DecodeMeeting(std::span<const uint8_t> data);

/// Strict whole-message decode for round-trip tests and future transports:
/// any rejected frame or trailing garbage is an error and `out` is left in
/// an unspecified state.
Status DecodeMeetingStrict(std::span<const uint8_t> data, DecodedMeeting* out);

}  // namespace wire
}  // namespace jxp

#endif  // JXP_WIRE_MEETING_CODEC_H_
