#include "core/state_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "common/hash.h"

namespace jxp {
namespace core {
namespace {

class StateIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/peer_state_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jxp";
    Random rng(17);
    graph_ = graph::BarabasiAlbert(200, 3, rng);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  JxpPeer MakeWarmPeer() {
    std::vector<graph::PageId> pages_a;
    std::vector<graph::PageId> pages_b;
    for (graph::PageId p = 0; p < 200; ++p) {
      (p % 3 == 0 ? pages_a : pages_b).push_back(p);
    }
    JxpOptions options;
    JxpPeer a(0, graph::Subgraph::Induce(graph_, pages_a), 200, options);
    JxpPeer b(1, graph::Subgraph::Induce(graph_, pages_b), 200, options);
    for (int i = 0; i < 8; ++i) JxpPeer::Meet(a, b);
    return a;
  }

  std::string path_;
  graph::Graph graph_;
};

TEST_F(StateIoTest, RoundTripPreservesEverything) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->id(), original.id());
  EXPECT_EQ(loaded->global_size(), original.global_size());
  EXPECT_DOUBLE_EQ(loaded->world_score(), original.world_score());
  ASSERT_EQ(loaded->fragment().NumLocalPages(), original.fragment().NumLocalPages());
  for (graph::Subgraph::LocalIndex i = 0; i < original.fragment().NumLocalPages(); ++i) {
    EXPECT_EQ(loaded->fragment().GlobalId(i), original.fragment().GlobalId(i));
    EXPECT_DOUBLE_EQ(loaded->local_scores()[i], original.local_scores()[i]);
    EXPECT_EQ(loaded->fragment().GlobalOutDegree(i),
              original.fragment().GlobalOutDegree(i));
  }
  ASSERT_EQ(loaded->world_node().NumEntries(), original.world_node().NumEntries());
  for (size_t e = 0; e < original.world_node().NumEntries(); ++e) {
    const ExternalPageInfo info = original.world_node().entry(e);
    const auto restored = loaded->world_node().Find(info.page);
    ASSERT_TRUE(restored.has_value()) << "page " << info.page;
    EXPECT_EQ(restored->out_degree, info.out_degree);
    EXPECT_DOUBLE_EQ(restored->score, info.score);
    EXPECT_TRUE(std::ranges::equal(restored->targets, info.targets));
  }
  EXPECT_DOUBLE_EQ(loaded->world_node().TotalDanglingScore(),
                   original.world_node().TotalDanglingScore());
}

TEST_F(StateIoTest, RestoredPeerResumesMeetings) {
  JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_TRUE(loaded.ok());

  // Both the original and the restored copy meet the same fresh partner;
  // their resulting scores must be identical.
  std::vector<graph::PageId> partner_pages;
  for (graph::PageId p = 0; p < 200; p += 2) partner_pages.push_back(p);
  JxpOptions options;
  JxpPeer partner1(7, graph::Subgraph::Induce(graph_, partner_pages), 200, options);
  JxpPeer partner2(8, graph::Subgraph::Induce(graph_, partner_pages), 200, options);
  JxpPeer::Meet(original, partner1);
  JxpPeer::Meet(*loaded, partner2);
  for (graph::Subgraph::LocalIndex i = 0; i < original.fragment().NumLocalPages(); ++i) {
    EXPECT_NEAR(loaded->local_scores()[i], original.local_scores()[i], 1e-14);
  }
}

/// The whole content of the file at `path`.
std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(StateIoTest, SaveLoadSaveIsByteIdentical) {
  // A graph with dangling pages, so the file carries both world sections.
  Random rng(29);
  graph::GraphBuilder builder(300);
  for (graph::PageId u = 0; u < 300; ++u) {
    if (u % 5 == 4) continue;  // Dangling.
    for (int k = 0; k < 4; ++k) {
      builder.AddEdge(u, static_cast<graph::PageId>(rng.NextBounded(300)));
    }
  }
  const graph::Graph g = builder.Build();
  std::vector<graph::PageId> pages[3];
  for (graph::PageId p = 0; p < 300; ++p) pages[p % 3].push_back(p);
  JxpOptions options;
  JxpPeer a(0, graph::Subgraph::Induce(g, pages[0]), 300, options);
  JxpPeer b(1, graph::Subgraph::Induce(g, pages[1]), 300, options);
  JxpPeer c(2, graph::Subgraph::Induce(g, pages[2]), 300, options);
  for (int i = 0; i < 4; ++i) {
    JxpPeer::Meet(a, b);
    JxpPeer::Meet(c, a);
  }
  ASSERT_GT(a.world_node().NumEntries(), 10u);
  ASSERT_GT(a.world_node().dangling_pages().size(), 1u);

  ASSERT_TRUE(SavePeerState(a, path_).ok());
  const std::string first = ReadFile(path_);
  auto loaded = LoadPeerState(path_, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(SavePeerState(*loaded, path_).ok());
  EXPECT_EQ(ReadFile(path_), first);
}

TEST_F(StateIoTest, DetectsBitFlips) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  // Flip one character in the middle of the file.
  std::string content;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  content[content.size() / 2] = content[content.size() / 2] == '1' ? '2' : '1';
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(StateIoTest, DetectsTruncation) {
  const JxpPeer original = MakeWarmPeer();
  ASSERT_TRUE(SavePeerState(original, path_).ok());
  std::string content;
  {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    content = ss.str();
  }
  {
    std::ofstream out(path_, std::ios::trunc);
    out << content.substr(0, content.size() / 3);
  }
  auto loaded = LoadPeerState(path_, original.options());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(StateIoTest, MissingFileIsIOError) {
  auto loaded = LoadPeerState(path_ + ".absent", JxpOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(StateIoTest, RejectsWrongMagic) {
  {
    std::ofstream out(path_);
    const std::string body = "NOTJXP v9\n";
    out << body << "checksum " << HashString(body) << "\n";
  }
  auto loaded = LoadPeerState(path_, JxpOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace core
}  // namespace jxp
