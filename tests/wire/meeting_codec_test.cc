#include "wire/meeting_codec.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/varint.h"
#include "graph/subgraph.h"
#include "synopses/hash_sketch.h"
#include "wire/wire_format.h"

namespace jxp {
namespace wire {
namespace {

/// World knowledge with one entry: page 100 (out-degree 2, score 0.1) links
/// to page 5.
constexpr graph::PageId kOnePage[] = {100};
constexpr uint32_t kOneOutDegree[] = {2};
constexpr double kOneScore[] = {0.1};
constexpr uint32_t kOneOffsets[] = {0, 1};
constexpr graph::PageId kOneTarget[] = {5};
constexpr WorldKnowledgeView kOneEntry = {kOnePage, kOneOutDegree, kOneScore, kOneOffsets,
                                          kOneTarget, {}, {}};

/// A deterministic fragment of `n` pages with ids 3*i and a few successors
/// per page (some local, some external).
graph::Subgraph MakeFragment(size_t n) {
  std::vector<graph::PageId> pages;
  std::vector<std::vector<graph::PageId>> successors;
  for (size_t i = 0; i < n; ++i) {
    const graph::PageId page = static_cast<graph::PageId>(3 * i);
    pages.push_back(page);
    std::vector<graph::PageId> succ;
    if (i + 1 < n) succ.push_back(static_cast<graph::PageId>(3 * (i + 1)));
    succ.push_back(page + 1);  // External target.
    successors.push_back(std::move(succ));
  }
  return graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));
}

std::vector<double> MakeScores(size_t n) {
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) scores[i] = 1.0 / static_cast<double>(n + i + 1);
  return scores;
}

TEST(MeetingCodecTest, ScoreListRoundTripsAcrossChunks) {
  const size_t n = 150;  // > 2 chunks at the default 64 pages per chunk.
  const graph::Subgraph fragment = MakeFragment(n);
  const std::vector<double> scores = MakeScores(n);

  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, scores, EncodeOptions{}, bytes);

  DecodedMeeting decoded;
  ASSERT_TRUE(DecodeMeetingStrict(bytes, &decoded).ok());
  EXPECT_EQ(decoded.frames_decoded, (n + 63) / 64);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  const DecodedPageTable& table = decoded.page_table;
  ASSERT_EQ(table.pages.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const auto local = static_cast<graph::Subgraph::LocalIndex>(i);
    EXPECT_EQ(table.pages[i], fragment.GlobalId(local));
    EXPECT_EQ(table.scores[i], LowerBoundFloat(scores[i]));
    const auto expected = fragment.Successors(local);
    const uint64_t begin = table.successor_offsets[i];
    ASSERT_EQ(table.successor_offsets[i + 1] - begin, expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           table.successors.begin() + static_cast<ptrdiff_t>(begin)));
  }
}

TEST(MeetingCodecTest, ScoresAreQuantizedNeverUpward) {
  const size_t n = 40;
  const graph::Subgraph fragment = MakeFragment(n);
  const std::vector<double> scores = MakeScores(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, scores, EncodeOptions{}, bytes);
  DecodedMeeting decoded;
  ASSERT_TRUE(DecodeMeetingStrict(bytes, &decoded).ok());
  for (size_t i = 0; i < n; ++i) {
    // Theorem 5.3 safety: the wire never reports more than the exact double.
    EXPECT_LE(static_cast<double>(decoded.page_table.scores[i]), scores[i]);
    EXPECT_NEAR(static_cast<double>(decoded.page_table.scores[i]), scores[i],
                scores[i] * 1e-6);
  }
}

TEST(MeetingCodecTest, CompressionStaysUnderEightBytesPerEntry) {
  // Delta + VByte ids and 4-byte scores must beat the analytic model's
  // 16 B/page; the acceptance bar is < 8 B per score-list entry on a dense
  // id range, links excluded (dangling pages, so no successor cost).
  const size_t n = 512;
  std::vector<graph::PageId> pages(n);
  for (size_t i = 0; i < n; ++i) pages[i] = static_cast<graph::PageId>(i);
  const graph::Subgraph fragment = graph::Subgraph::FromKnowledge(
      std::move(pages), std::vector<std::vector<graph::PageId>>(n));
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, MakeScores(n), EncodeOptions{}, bytes);
  EXPECT_LT(static_cast<double>(bytes.size()) / static_cast<double>(n), 8.0);
}

TEST(MeetingCodecTest, WorldKnowledgeRoundTrips) {
  const std::vector<graph::PageId> pages = {100, 220};
  const std::vector<uint32_t> out_degrees = {4, 1};
  const std::vector<double> scores = {0.001, 0.25};
  const std::vector<uint32_t> offsets = {0, 3, 4};
  const std::vector<graph::PageId> targets = {5, 9, 12, 7};
  const std::vector<graph::PageId> dangling_pages = {17, 400};
  const std::vector<double> dangling_scores = {0.0625, 0.125};
  std::vector<uint8_t> bytes;
  const WorldKnowledgeView world_in = {pages, out_degrees, scores, offsets,
                                       targets, dangling_pages, dangling_scores};
  EncodeWorldKnowledge(world_in, bytes);

  DecodedMeeting decoded;
  ASSERT_TRUE(DecodeMeetingStrict(bytes, &decoded).ok());
  const DecodedWorld& world = decoded.world;
  EXPECT_EQ(world.pages, pages);
  EXPECT_EQ(world.out_degrees, out_degrees);
  EXPECT_EQ(world.scores[0], LowerBoundFloat(0.001));
  EXPECT_EQ(world.target_offsets, offsets);
  EXPECT_EQ(world.targets, targets);
  EXPECT_EQ(world.dangling_pages, dangling_pages);
  EXPECT_EQ(world.dangling_scores[0], LowerBoundFloat(0.0625));
}

TEST(MeetingCodecTest, EmptyWorldKnowledgeIsNotFramed) {
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge({}, bytes);
  EXPECT_TRUE(bytes.empty());
}

TEST(MeetingCodecTest, SynopsisRoundTrips) {
  synopses::HashSketch sketch(32, 0x1234);
  for (uint64_t key = 0; key < 500; ++key) sketch.Add(key * 977);
  std::vector<uint8_t> bytes;
  EncodeSynopsis(sketch, bytes);

  DecodedMeeting decoded;
  ASSERT_TRUE(DecodeMeetingStrict(bytes, &decoded).ok());
  ASSERT_TRUE(decoded.has_synopsis);
  EXPECT_EQ(decoded.synopsis_seed, sketch.seed());
  ASSERT_EQ(decoded.synopsis_bitmaps.size(), sketch.num_buckets());
  EXPECT_TRUE(std::equal(sketch.bitmaps().begin(), sketch.bitmaps().end(),
                         decoded.synopsis_bitmaps.begin()));
}

TEST(MeetingCodecTest, TruncatedTransferSalvagesWholeChunkPrefix) {
  const size_t n = 150;
  const graph::Subgraph fragment = MakeFragment(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, MakeScores(n), EncodeOptions{}, bytes);

  // Find the second chunk boundary by parsing two frames.
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  const size_t two_chunks = offset;

  // Cut mid-third-chunk: the intact two-chunk prefix must decode.
  std::vector<uint8_t> cut(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(two_chunks + 10));
  const DecodedMeeting decoded = DecodeMeeting(cut);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.frames_decoded, 2u);
  EXPECT_EQ(decoded.bytes_consumed, two_chunks);
  ASSERT_EQ(decoded.page_table.pages.size(), 128u);
  for (size_t i = 0; i < decoded.page_table.pages.size(); ++i) {
    EXPECT_EQ(decoded.page_table.pages[i],
              fragment.GlobalId(static_cast<graph::Subgraph::LocalIndex>(i)));
  }
}

TEST(MeetingCodecTest, BitFlipRejectsOnlyTheDamagedSuffix) {
  const size_t n = 150;
  const graph::Subgraph fragment = MakeFragment(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, MakeScores(n), EncodeOptions{}, bytes);
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  const size_t first_chunk = offset;

  std::vector<uint8_t> corrupt = bytes;
  corrupt[first_chunk + 20] ^= 0x10;  // Inside the second frame.
  const DecodedMeeting decoded = DecodeMeeting(corrupt);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.frames_decoded, 1u);
  EXPECT_EQ(decoded.bytes_consumed, first_chunk);
  EXPECT_EQ(decoded.page_table.pages.size(), 64u);
}

TEST(MeetingCodecTest, OutOfOrderSectionsRejected) {
  const graph::Subgraph fragment = MakeFragment(40);
  // World frame before the score chunks: the world decodes, the late score
  // chunk is rejected.
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge(kOneEntry, bytes);
  EncodeScoreList(fragment, MakeScores(40), EncodeOptions{}, bytes);
  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.world.pages.size(), 1u);
  EXPECT_TRUE(decoded.page_table.pages.empty());
}

TEST(MeetingCodecTest, DuplicateWorldAndSynopsisFramesRejected) {
  {
    std::vector<uint8_t> bytes;
    EncodeWorldKnowledge(kOneEntry, bytes);
    EncodeWorldKnowledge(kOneEntry, bytes);
    DecodedMeeting out;
    EXPECT_FALSE(DecodeMeetingStrict(bytes, &out).ok());
  }
  {
    synopses::HashSketch sketch(8, 0x99);
    sketch.Add(7);
    std::vector<uint8_t> bytes;
    EncodeSynopsis(sketch, bytes);
    EncodeSynopsis(sketch, bytes);
    DecodedMeeting out;
    EXPECT_FALSE(DecodeMeetingStrict(bytes, &out).ok());
  }
}

TEST(MeetingCodecTest, CorruptCountsCannotForceHugeAllocations) {
  // A kScoreChunk whose count field claims far more records than the payload
  // could hold must be rejected up front (no multi-GB reserve on garbage).
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(0);           // first_index
  writer.PutVarint32(0x0fffffff);  // absurd record count
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kScoreChunk, payload, bytes);
  DecodedMeeting out;
  const Status status = DecodeMeetingStrict(bytes, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(out.page_table.pages.empty());
}

TEST(MeetingCodecTest, ResyncOffsetSkipsSemanticallyRejectedFrame) {
  // A checksum-valid frame whose payload semantics are rejected (absurd
  // record count) still has a trustworthy extent: resync_offset must point
  // one past it so a stream reader can recover what follows.
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(0);           // first_index
  writer.PutVarint32(0x0fffffff);  // absurd record count
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kScoreChunk, payload, bytes);
  const size_t bad_frame_end = bytes.size();

  EncodeWorldKnowledge(kOneEntry, bytes);

  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.bytes_consumed, 0u);
  EXPECT_EQ(decoded.resync_offset, bad_frame_end);

  // Resynchronizing past the rejected frame recovers the world knowledge.
  const DecodedMeeting rest = DecodeMeeting(
      std::span<const uint8_t>(bytes).subspan(decoded.resync_offset));
  EXPECT_TRUE(rest.error.ok()) << rest.error.ToString();
  ASSERT_EQ(rest.world.pages.size(), 1u);
  EXPECT_EQ(rest.world.pages[0], 100u);
}

TEST(MeetingCodecTest, ResyncOffsetEqualsConsumedWhenFrameUntrustworthy) {
  // A checksum mismatch means the declared length cannot be trusted, so no
  // resynchronization point exists past the salvaged prefix.
  const graph::Subgraph fragment = MakeFragment(100);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, MakeScores(100), EncodeOptions{}, bytes);
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  const size_t first_chunk = offset;

  std::vector<uint8_t> corrupt = bytes;
  corrupt[first_chunk + 20] ^= 0x04;  // Inside the second frame.
  const DecodedMeeting decoded = DecodeMeeting(corrupt);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.bytes_consumed, first_chunk);
  EXPECT_EQ(decoded.resync_offset, first_chunk);
}

TEST(MeetingCodecTest, ResyncOffsetEqualsConsumedOnCleanDecode) {
  const graph::Subgraph fragment = MakeFragment(10);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment, MakeScores(10), EncodeOptions{}, bytes);
  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_TRUE(decoded.error.ok());
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  EXPECT_EQ(decoded.resync_offset, bytes.size());
}

TEST(MeetingCodecTest, NonFiniteAndNegativeScoresRejected) {
  for (const float bad : {-0.25f, std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<uint8_t> payload;
    ByteWriter writer(payload);
    writer.PutVarint32(0);  // first_index
    writer.PutVarint32(1);  // count
    writer.PutVarint32(3);  // page id
    writer.PutFloat(bad);
    writer.PutVarint32(0);  // degree
    std::vector<uint8_t> bytes;
    AppendFrame(MessageType::kScoreChunk, payload, bytes);
    DecodedMeeting out;
    EXPECT_FALSE(DecodeMeetingStrict(bytes, &out).ok()) << "score " << bad;
  }
}

}  // namespace
}  // namespace wire
}  // namespace jxp
