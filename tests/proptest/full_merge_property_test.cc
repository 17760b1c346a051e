// Differential property test of the one-pass full merge (DESIGN.md §6b.9):
// a full-merge meeting must leave both peers bit-identical to the
// materialising sequence it replaced, written here from public calls —
// Subgraph::Merge, WorldNode::Union and Retain for W_M, BuildExtendedSystem
// and the power iteration under the self-consistent-denominator guard,
// ScaleScores, Retain onto V_A, and Union with the partner's pages.
//
// The generated peers stress what the pass has to get right: overlapping
// fragments, world entries on pages inside V_M, shared world pages with
// different target sets (so the target union's dedup matters), entries
// whose targets all lie in V_B \ V_A (they feed the merged system but leave
// the new world node), dangling records on both sides, and dangling partner
// pages outside V_A — under both combine modes, both world-link weightings
// and with authoritative refresh on and off.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/jxp_peer.h"
#include "core/world_node.h"
#include "graph/subgraph.h"
#include "markov/power_iteration.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using core::CombineMode;
using core::WorldNode;
using graph::PageId;
using graph::Subgraph;

struct FullMergeCase {
  uint64_t seed = 0;
  size_t num_pages = 80;     // Page ids are drawn from [0, num_pages).
  size_t world_entries = 40;  // Entries drawn per world node.

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " pages=" << num_pages << " entries=" << world_entries;
    return os.str();
  }

  std::vector<FullMergeCase> Shrink() const {
    std::vector<FullMergeCase> candidates;
    if (num_pages > 8) {
      FullMergeCase c = *this;
      c.num_pages /= 2;
      candidates.push_back(c);
    }
    if (world_entries > 1) {
      FullMergeCase c = *this;
      c.world_entries /= 2;
      candidates.push_back(c);
    }
    return candidates;
  }
};

FullMergeCase GenerateFullMergeCase(uint64_t seed) {
  FullMergeCase c;
  c.seed = seed;
  Random rng(seed ^ 0xf0112e7aULL);
  c.num_pages = 8 + rng.NextBounded(150);
  c.world_entries = 1 + rng.NextBounded(80);
  return c;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// A peer's pre-meeting state.
struct PeerState {
  Subgraph fragment;
  std::vector<double> scores;
  WorldNode world;
  double world_score = 0;
};

/// Every reported out-degree of a page is the same, as in a real network.
uint32_t OutDegreeOf(PageId page) { return 4 + page % 6; }

/// Sorted unique targets: 1-4 draws from `pool`.
std::vector<PageId> DrawTargets(Random& rng, const std::vector<PageId>& pool) {
  std::set<PageId> targets;
  for (size_t k = 1 + rng.NextBounded(4); k > 0; --k) {
    targets.insert(pool[rng.NextBounded(pool.size())]);
  }
  return {targets.begin(), targets.end()};
}

/// Two overlapping peers over a random graph of `num_pages` pages, about a
/// tenth of them dangling.
std::pair<PeerState, PeerState> BuildPeers(const FullMergeCase& c, size_t global_size) {
  Random rng(c.seed);
  std::vector<std::vector<PageId>> successors(c.num_pages);
  for (auto& succ : successors) {
    if (rng.NextBool(0.1)) continue;
    for (size_t k = 1 + rng.NextBounded(5); k > 0; --k) {
      succ.push_back(static_cast<PageId>(rng.NextBounded(c.num_pages)));
    }
  }
  std::vector<PageId> a_pages;
  std::vector<PageId> b_pages;
  for (PageId p = 0; p < c.num_pages; ++p) {
    const bool in_a = rng.NextBool(0.35);
    // Half of B is drawn from A's pages, so the fragments overlap.
    const bool in_b = in_a ? rng.NextBool(0.5) : rng.NextBool(0.3);
    if (in_a) a_pages.push_back(p);
    if (in_b) b_pages.push_back(p);
  }
  if (a_pages.empty()) a_pages.push_back(0);
  if (b_pages.empty()) b_pages.push_back(static_cast<PageId>(c.num_pages - 1));
  const auto fragment_of = [&](const std::vector<PageId>& pages) {
    std::vector<std::vector<PageId>> succ;
    for (PageId p : pages) succ.push_back(successors[p]);
    return Subgraph::FromKnowledge(pages, std::move(succ));
  };

  std::pair<PeerState, PeerState> peers;
  peers.first.fragment = fragment_of(a_pages);
  peers.second.fragment = fragment_of(b_pages);
  std::vector<PageId> both_pools = a_pages;
  both_pools.insert(both_pools.end(), b_pages.begin(), b_pages.end());
  std::vector<PageId> b_only;
  for (PageId p : b_pages) {
    if (!std::binary_search(a_pages.begin(), a_pages.end(), p)) b_only.push_back(p);
  }
  const std::vector<PageId> outside = {static_cast<PageId>(c.num_pages),
                                       static_cast<PageId>(c.num_pages + 7)};
  for (PeerState* peer : {&peers.first, &peers.second}) {
    const double n = static_cast<double>(global_size);
    for (size_t i = 0; i < peer->fragment.NumLocalPages(); ++i) {
      peer->scores.push_back((0.5 + rng.NextDouble()) / n);
    }
    double mass = 0;
    for (double s : peer->scores) mass += s;
    peer->world_score = 1.0 - mass;
    // Entry pages anywhere in the id space, V_M included. Targets mostly
    // from either fragment, sometimes only from V_B \ V_A, sometimes from
    // pages no fragment holds.
    std::set<PageId> pages;
    for (size_t e = 0; e < c.world_entries; ++e) {
      pages.insert(static_cast<PageId>(rng.NextBounded(c.num_pages + 20)));
    }
    for (PageId page : pages) {
      const uint64_t pick = rng.NextBounded(10);
      const std::vector<PageId>& pool =
          pick < 2 && !b_only.empty() ? b_only : (pick < 3 ? outside : both_pools);
      peer->world.AppendEntry(page, OutDegreeOf(page), rng.NextDouble() / n,
                              DrawTargets(rng, pool));
    }
    std::set<PageId> dangling;
    for (size_t d = rng.NextBounded(6); d > 0; --d) {
      dangling.insert(static_cast<PageId>(rng.NextBounded(c.num_pages + 20)));
    }
    for (PageId page : dangling) peer->world.AppendDangling(page, rng.NextDouble() / n);
  }
  return peers;
}

double Combine(CombineMode mode, double a, double b) {
  return mode == CombineMode::kTakeMax ? std::max(a, b) : 0.5 * (a + b);
}

/// What the receiver holds after the meeting.
struct MergeResult {
  std::vector<double> scores;
  WorldNode world;
  double world_score = 0;
  int iterations = 0;
};

/// The materialising full merge, from public calls only.
MergeResult ReferenceFullMerge(const PeerState& self, const PeerState& partner,
                               const core::JxpOptions& options, size_t global_size) {
  std::vector<Subgraph::LocalIndex> mine;
  std::vector<Subgraph::LocalIndex> theirs;
  const Subgraph merged = Subgraph::Merge(self.fragment, partner.fragment, &mine, &theirs);
  const size_t m = merged.NumLocalPages();
  std::vector<double> merged_scores(m, 0.0);
  std::vector<bool> held(m, false);
  for (size_t i = 0; i < mine.size(); ++i) {
    merged_scores[mine[i]] = self.scores[i];
    held[mine[i]] = true;
  }
  for (size_t k = 0; k < theirs.size(); ++k) {
    merged_scores[theirs[k]] =
        held[theirs[k]] ? Combine(options.combine_mode, merged_scores[theirs[k]],
                                  partner.scores[k])
                        : partner.scores[k];
  }

  // W_M: both world nodes minus the pages of G_M.
  WorldNode merged_world =
      WorldNode::Union(self.world, partner.world, options.combine_mode, false);
  merged_world.Retain([&](PageId page) { return !merged.Contains(page); },
                      [](PageId) { return true; });

  double local_mass = 0;
  for (double s : merged_scores) local_mass += s;
  double denominator = std::max(1.0 - local_mass, 1e-12);
  std::vector<double> init = merged_scores;
  init.push_back(denominator);
  markov::PowerIterationOptions pi;
  pi.damping = options.damping;
  pi.tolerance = options.pr_tolerance;
  pi.max_iterations = options.pr_max_iterations;
  const auto weighting = options.uniform_world_links
                             ? core::WorldLinkWeighting::kUniform
                             : core::WorldLinkWeighting::kScoreProportional;
  MergeResult out;
  markov::PowerIterationResult result;
  for (int guard = 0; guard < 64; ++guard) {
    const core::ExtendedGraphSystem system =
        core::BuildExtendedSystem(merged, merged_world, denominator, global_size, weighting);
    result = markov::StationaryDistribution(system.matrix, system.teleport, system.dangling,
                                            init, pi);
    out.iterations += result.iterations;
    if (result.distribution[m] <= denominator + 1e-13) break;
    denominator = result.distribution[m];
    init = result.distribution;
  }
  if (options.combine_mode == CombineMode::kAverage) {
    merged_world.ScaleScores(result.distribution[m] / denominator);
  }
  for (size_t i = 0; i < mine.size(); ++i) out.scores.push_back(result.distribution[mine[i]]);

  // The new world node: W_M projected onto V_A, plus the partner's pages
  // outside V_A at their merged scores.
  merged_world.Retain([](PageId) { return true; },
                      [&](PageId t) { return self.fragment.Contains(t); });
  WorldNode partner_pages;
  for (Subgraph::LocalIndex k = 0; k < partner.fragment.NumLocalPages(); ++k) {
    const PageId page = partner.fragment.GlobalId(k);
    if (self.fragment.Contains(page)) continue;
    const double score = result.distribution[theirs[k]];
    if (partner.fragment.GlobalOutDegree(k) == 0) {
      partner_pages.AppendDangling(page, score);
      continue;
    }
    std::vector<PageId> targets;
    for (PageId t : partner.fragment.Successors(k)) {
      if (self.fragment.Contains(t)) targets.push_back(t);
    }
    if (!targets.empty()) {
      partner_pages.AppendEntry(
          page, static_cast<uint32_t>(partner.fragment.GlobalOutDegree(k)), score, targets);
    }
  }
  out.world = WorldNode::Union(merged_world, partner_pages, options.combine_mode,
                               options.authoritative_refresh);
  double mass = 0;
  for (double s : out.scores) mass += s;
  out.world_score = std::max(1.0 - mass, 1e-12);
  return out;
}

template <typename T>
bool SameArray(std::span<const T> a, std::span<const T> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if constexpr (std::is_same_v<T, double>) {
      if (!SameBits(a[i], b[i])) return false;
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

CheckResult Compare(const core::JxpPeer& peer, const MergeResult& want) {
  const std::vector<double>& scores = peer.local_scores();
  if (!SameArray<double>(scores, want.scores)) return "local scores differ";
  const WorldNode& got = peer.world_node();
  if (!SameArray<PageId>(got.pages(), want.world.pages())) return "world pages differ";
  if (!SameArray<uint32_t>(got.out_degrees(), want.world.out_degrees())) {
    return "world out-degrees differ";
  }
  if (!SameArray<double>(got.scores(), want.world.scores())) return "world scores differ";
  if (!SameArray<uint32_t>(got.target_offsets(), want.world.target_offsets()) ||
      !SameArray<PageId>(got.all_targets(), want.world.all_targets())) {
    return "world targets differ";
  }
  if (!SameArray<PageId>(got.dangling_pages(), want.world.dangling_pages()) ||
      !SameArray<double>(got.dangling_scores(), want.world.dangling_scores())) {
    return "world dangling records differ";
  }
  if (!SameBits(peer.world_score(), want.world_score)) return "world score differs";
  if (peer.last_pr_iterations() != want.iterations) return "iteration count differs";
  return std::nullopt;
}

CheckResult OnePassMatchesUnionReference(const FullMergeCase& c) {
  const size_t global_size = c.num_pages + 60;
  const auto [a, b] = BuildPeers(c, global_size);
  for (const CombineMode mode : {CombineMode::kAverage, CombineMode::kTakeMax}) {
    for (const bool uniform : {false, true}) {
      for (const bool authoritative : {false, true}) {
        core::JxpOptions options;
        options.merge_mode = core::MergeMode::kFullMerge;
        options.combine_mode = mode;
        options.uniform_world_links = uniform;
        options.authoritative_refresh = authoritative;
        options.pr_tolerance = 1e-10;
        const MergeResult want_a = ReferenceFullMerge(a, b, options, global_size);
        const MergeResult want_b = ReferenceFullMerge(b, a, options, global_size);
        core::JxpPeer peer_a(0, a.fragment, global_size, options, a.scores, a.world,
                             a.world_score);
        core::JxpPeer peer_b(1, b.fragment, global_size, options, b.scores, b.world,
                             b.world_score);
        core::JxpPeer::Meet(peer_a, peer_b);
        CheckResult r = Compare(peer_a, want_a);
        if (!r.has_value()) r = Compare(peer_b, want_b);
        if (r.has_value()) {
          std::ostringstream os;
          os << *r << " (" << (mode == CombineMode::kAverage ? "average" : "take-max")
             << (uniform ? ", uniform" : "") << (authoritative ? ", authoritative" : "")
             << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

TEST(FullMergeProperty, OnePassMatchesUnionReference) {
  ForAll<FullMergeCase>(0xf0110001, 120, GenerateFullMergeCase,
                        OnePassMatchesUnionReference);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
