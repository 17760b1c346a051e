#include "core/world_node.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace jxp {
namespace core {
namespace {

constexpr auto kMax = CombineMode::kTakeMax;
constexpr auto kAvg = CombineMode::kAverage;

/// The targets of `page`'s entry as a vector (empty when absent).
std::vector<graph::PageId> TargetsOf(const WorldNode& w, graph::PageId page) {
  const auto info = w.Find(page);
  if (!info.has_value()) return {};
  return {info->targets.begin(), info->targets.end()};
}

TEST(WorldNodeTest, FirstObservationStoresEverything) {
  WorldNode w;
  const std::vector<graph::PageId> targets = {5, 3, 5};  // Dup collapses.
  w.Observe(10, 4, 0.2, targets, kMax);
  ASSERT_EQ(w.NumEntries(), 1u);
  const auto info = w.Find(10);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->page, 10u);
  EXPECT_EQ(info->out_degree, 4u);
  EXPECT_DOUBLE_EQ(info->score, 0.2);
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{3, 5}));
  EXPECT_EQ(w.NumLinks(), 2u);
}

TEST(WorldNodeTest, TakeMaxKeepsLargerScore) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  w.Observe(10, 2, 0.3, t, kMax);
  w.Observe(10, 2, 0.1, t, kMax);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.3);
  w.Observe(10, 2, 0.5, t, kMax);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.5);
}

TEST(WorldNodeTest, AverageCombines) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  w.Observe(10, 2, 0.4, t, kAvg);
  w.Observe(10, 2, 0.2, t, kAvg);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.3);
}

TEST(WorldNodeTest, AuthoritativeOverwrites) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  w.Observe(10, 2, 0.5, t, kMax);
  w.Observe(10, 2, 0.1, t, kMax, /*authoritative=*/true);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.1);
}

TEST(WorldNodeTest, TargetListsUnion) {
  WorldNode w;
  const std::vector<graph::PageId> t1 = {1, 3};
  const std::vector<graph::PageId> t2 = {2, 3};
  w.Observe(10, 5, 0.1, t1, kMax);
  w.Observe(10, 5, 0.1, t2, kMax);
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{1, 2, 3}));
}

TEST(WorldNodeTest, EntriesStayPageSortedWhateverTheObservationOrder) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  for (graph::PageId page : {30u, 10u, 20u, 5u}) w.Observe(page, 2, 0.1, t, kMax);
  for (graph::PageId page : {9u, 3u, 6u}) w.ObserveDangling(page, 0.1, kMax);
  EXPECT_TRUE(std::ranges::equal(w.pages(), std::vector<graph::PageId>{5, 10, 20, 30}));
  EXPECT_TRUE(std::ranges::equal(w.dangling_pages(), std::vector<graph::PageId>{3, 6, 9}));
}

TEST(WorldNodeTest, DanglingScores) {
  WorldNode w;
  w.ObserveDangling(7, 0.1, kMax);
  w.ObserveDangling(8, 0.2, kMax);
  w.ObserveDangling(7, 0.05, kMax);  // Smaller: ignored.
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.3);
  w.ObserveDangling(7, 0.05, kMax, /*authoritative=*/true);
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.25);
  EXPECT_DOUBLE_EQ(w.FindDangling(7).value(), 0.05);
  EXPECT_FALSE(w.FindDangling(9).has_value());
}

TEST(WorldNodeTest, EraseRemovesBothKinds) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  w.Observe(10, 2, 0.3, t, kMax);
  w.ObserveDangling(11, 0.2, kMax);
  w.Retain([](graph::PageId page) { return page != 10 && page != 11; },
           [](graph::PageId) { return true; });
  EXPECT_EQ(w.NumEntries(), 0u);
  EXPECT_EQ(w.NumLinks(), 0u);
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.0);
}

TEST(WorldNodeTest, RetainFiltersPagesAndTargetsInOnePass) {
  WorldNode w;
  w.Observe(10, 4, 0.1, std::vector<graph::PageId>{1, 2}, kMax);
  w.Observe(11, 4, 0.2, std::vector<graph::PageId>{3}, kMax);
  w.Observe(12, 4, 0.3, std::vector<graph::PageId>{4, 5}, kMax);
  w.ObserveDangling(11, 0.4, kMax);
  w.ObserveDangling(13, 0.5, kMax);
  w.Retain([](graph::PageId page) { return page != 11 && page != 14; },
           [](graph::PageId t) { return t != 2; });
  EXPECT_EQ(w.NumEntries(), 2u);
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{1}));
  EXPECT_EQ(TargetsOf(w, 12), (std::vector<graph::PageId>{4, 5}));
  EXPECT_DOUBLE_EQ(w.Find(12)->score, 0.3);
  EXPECT_FALSE(w.FindDangling(11).has_value());
  EXPECT_DOUBLE_EQ(w.FindDangling(13).value(), 0.5);
}

TEST(WorldNodeTest, FilterTargetsDropsEmptyEntries) {
  WorldNode w;
  const std::vector<graph::PageId> t1 = {1, 2};
  const std::vector<graph::PageId> t2 = {3};
  const std::vector<graph::PageId> t3 = {0, 3};
  w.Observe(10, 4, 0.1, t1, kMax);
  w.Observe(11, 4, 0.1, t2, kMax);
  w.Observe(12, 4, 0.1, t3, kMax);
  w.Retain([](graph::PageId) { return true; }, [](graph::PageId t) { return t <= 2; });
  EXPECT_TRUE(w.Find(10).has_value());
  EXPECT_FALSE(w.Find(11).has_value());
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{1, 2}));
  EXPECT_EQ(TargetsOf(w, 12), (std::vector<graph::PageId>{0}));
  EXPECT_EQ(w.NumLinks(), 3u);
}

TEST(WorldNodeTest, ScaleScores) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  w.Observe(10, 2, 0.4, t, kMax);
  w.ObserveDangling(11, 0.2, kMax);
  w.ScaleScores(0.5);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.2);
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.1);
}

TEST(WorldNodeTest, WireBytes) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1, 2, 3};
  w.Observe(10, 4, 0.1, t, kMax);
  w.ObserveDangling(11, 0.2, kMax);
  EXPECT_DOUBLE_EQ(w.WireBytes(), 20 + 3 * 8 + 16);
}

}  // namespace
}  // namespace core
}  // namespace jxp
