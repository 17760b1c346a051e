// Differential property tests of the flat world node (DESIGN.md §6b): random
// sequences of observe / dangling / retain (erase + filter) / scale / merge
// applied to core::WorldNode and to a small map-based reference model of the
// same semantics must leave both with bit-identical contents, under both
// combine modes and with authoritative reports mixed in. A second property
// pins the extended system's world row bit for bit to a reference built from
// its definition: per-target sums in ascending page order, divided by alpha_w
// after the sum; a third repeats that check on extreme out-degrees and scores
// (signed zeros, subnormals, near-equal values).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/world_node.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "markov/sparse_matrix.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using core::CombineMode;
using core::WorldNode;
using graph::PageId;

/// One randomized operation sequence; everything else derives from `seed`.
struct WorldOpsCase {
  uint64_t seed = 0;
  size_t num_ops = 40;
  size_t num_pages = 60;    // External page ids are drawn from [0, num_pages).
  size_t num_targets = 20;  // Target ids are drawn from [1000, 1000 + num_targets).

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " ops=" << num_ops << " pages=" << num_pages
       << " targets=" << num_targets;
    return os.str();
  }

  std::vector<WorldOpsCase> Shrink() const {
    std::vector<WorldOpsCase> candidates;
    if (num_ops > 1) {
      WorldOpsCase c = *this;
      c.num_ops /= 2;
      candidates.push_back(c);
    }
    if (num_pages > 4) {
      WorldOpsCase c = *this;
      c.num_pages /= 2;
      candidates.push_back(c);
    }
    if (num_targets > 2) {
      WorldOpsCase c = *this;
      c.num_targets /= 2;
      candidates.push_back(c);
    }
    return candidates;
  }
};

WorldOpsCase GenerateWorldOpsCase(uint64_t seed) {
  WorldOpsCase c;
  c.seed = seed;
  Random rng(seed ^ 0x3011d0deULL);
  c.num_ops = 1 + rng.NextBounded(80);
  c.num_pages = 4 + rng.NextBounded(120);
  c.num_targets = 2 + rng.NextBounded(40);
  return c;
}

double Combine(CombineMode mode, double existing, double incoming) {
  return mode == CombineMode::kTakeMax ? std::max(existing, incoming)
                                       : 0.5 * (existing + incoming);
}

/// The reference model: the world node's semantics over ordered maps, one
/// observation at a time.
struct ReferenceWorld {
  struct Entry {
    uint32_t out_degree = 0;
    double score = 0;
    std::set<PageId> targets;
  };
  std::map<PageId, Entry> entries;
  std::map<PageId, double> dangling;

  void Observe(PageId page, uint32_t out_degree, double score,
               const std::vector<PageId>& targets, CombineMode mode, bool authoritative) {
    const auto [it, inserted] = entries.try_emplace(page);
    Entry& entry = it->second;
    if (inserted) {
      entry.out_degree = out_degree;
      entry.score = score;
    } else {
      entry.score = authoritative ? score : Combine(mode, entry.score, score);
    }
    entry.targets.insert(targets.begin(), targets.end());
  }

  void ObserveDangling(PageId page, double score, CombineMode mode, bool authoritative) {
    const auto [it, inserted] = dangling.try_emplace(page, score);
    if (!inserted) it->second = authoritative ? score : Combine(mode, it->second, score);
  }

  /// Union, then the `excluded` pages dropped: base minus `excluded`, then
  /// every incoming record not excluded observed in turn.
  void Merge(const ReferenceWorld& incoming, CombineMode mode, bool authoritative,
             const std::set<PageId>& excluded) {
    for (PageId page : excluded) {
      entries.erase(page);
      dangling.erase(page);
    }
    for (const auto& [page, entry] : incoming.entries) {
      if (excluded.count(page) > 0) continue;
      Observe(page, entry.out_degree, entry.score,
              {entry.targets.begin(), entry.targets.end()}, mode, authoritative);
    }
    for (const auto& [page, score] : incoming.dangling) {
      if (excluded.count(page) == 0) ObserveDangling(page, score, mode, authoritative);
    }
  }
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// nullopt when `flat` holds exactly the reference's contents, bit for bit,
/// in ascending page order.
CheckResult Compare(const WorldNode& flat, const ReferenceWorld& ref) {
  if (flat.NumEntries() != ref.entries.size()) return "entry count differs";
  size_t e = 0;
  size_t links = 0;
  for (const auto& [page, entry] : ref.entries) {
    const core::ExternalPageInfo info = flat.entry(e++);
    if (info.page != page) return "entry pages differ or are out of order";
    if (info.out_degree != entry.out_degree) return "out-degree differs";
    if (!SameBits(info.score, entry.score)) return "entry score differs";
    if (!std::ranges::equal(info.targets, entry.targets)) return "targets differ";
    links += entry.targets.size();
  }
  if (flat.NumLinks() != links) return "link count differs";
  if (flat.dangling_pages().size() != ref.dangling.size()) return "dangling count differs";
  size_t d = 0;
  double total = 0;
  for (const auto& [page, score] : ref.dangling) {
    if (flat.dangling_pages()[d] != page) return "dangling pages differ";
    if (!SameBits(flat.dangling_scores()[d], score)) return "dangling score differs";
    total += score;
    ++d;
  }
  if (!SameBits(flat.TotalDanglingScore(), total)) return "dangling total differs";
  return std::nullopt;
}

/// Applies the same random operation sequence to both models.
struct OpRunner {
  OpRunner(const WorldOpsCase& c, CombineMode mode) : c(c), mode(mode), rng(c.seed) {}

  PageId RandomPage() { return static_cast<PageId>(rng.NextBounded(c.num_pages)); }
  /// Out-degree is a function of the page: reports about one page agree.
  static uint32_t OutDegreeOf(PageId page) { return 1 + page % 9; }
  std::vector<PageId> RandomTargets() {
    std::vector<PageId> targets(1 + rng.NextBounded(4));  // Any order, maybe dups.
    for (PageId& t : targets) {
      t = 1000 + static_cast<PageId>(rng.NextBounded(c.num_targets));
    }
    return targets;
  }
  /// Scores from a small grid, so combines hit ties and repeated values.
  double RandomScore() { return static_cast<double>(rng.NextBounded(64)) / 640.0; }

  /// Observes a few random records into both `flat` and `ref`.
  void Observations(WorldNode& flat, ReferenceWorld& ref, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      const PageId page = RandomPage();
      const double score = RandomScore();
      const bool authoritative = rng.NextBool(0.3);
      if (rng.NextBool(0.8)) {
        const std::vector<PageId> targets = RandomTargets();
        flat.Observe(page, OutDegreeOf(page), score, targets, mode, authoritative);
        ref.Observe(page, OutDegreeOf(page), score, targets, mode, authoritative);
      } else {
        flat.ObserveDangling(page, score, mode, authoritative);
        ref.ObserveDangling(page, score, mode, authoritative);
      }
    }
  }

  CheckResult Run() {
    WorldNode flat;
    ReferenceWorld ref;
    for (size_t op = 0; op < c.num_ops; ++op) {
      switch (rng.NextBounded(6)) {
        case 0:
        case 1:
          Observations(flat, ref, 1 + rng.NextBounded(3));
          break;
        case 2: {  // Retain: drop some pages and the targets of one residue.
          std::set<PageId> dropped;
          for (size_t k = rng.NextBounded(4); k > 0; --k) dropped.insert(RandomPage());
          const PageId modulus = static_cast<PageId>(2 + rng.NextBounded(3));
          const PageId residue = static_cast<PageId>(rng.NextBounded(modulus + 1));
          const auto keep_page = [&](PageId page) { return dropped.count(page) == 0; };
          const auto keep_target = [&](PageId t) { return t % modulus != residue; };
          flat.Retain(keep_page, keep_target);
          for (auto it = ref.entries.begin(); it != ref.entries.end();) {
            std::erase_if(it->second.targets, [&](PageId t) { return !keep_target(t); });
            const bool keep = keep_page(it->first) && !it->second.targets.empty();
            it = keep ? std::next(it) : ref.entries.erase(it);
          }
          std::erase_if(ref.dangling, [&](const auto& d) { return !keep_page(d.first); });
          break;
        }
        case 3:
          Observations(flat, ref, 1);
          break;
        case 4: {  // Scale.
          const double factor = rng.NextDouble() * 2.0;
          flat.ScaleScores(factor);
          for (auto& [page, entry] : ref.entries) entry.score *= factor;
          for (auto& [page, score] : ref.dangling) score *= factor;
          break;
        }
        case 5: {  // Merge another node in, then optionally drop some pages.
          WorldNode flat_in;
          ReferenceWorld ref_in;
          Observations(flat_in, ref_in, rng.NextBounded(8));
          std::set<PageId> excluded;
          if (rng.NextBool(0.5)) {
            for (size_t k = rng.NextBounded(5); k > 0; --k) excluded.insert(RandomPage());
          }
          const bool authoritative = rng.NextBool(0.3);
          flat = WorldNode::Union(flat, flat_in, mode, authoritative);
          flat.Retain([&](PageId page) { return excluded.count(page) == 0; },
                      [](PageId) { return true; });
          ref.Merge(ref_in, mode, authoritative, excluded);
          break;
        }
      }
      if (CheckResult diff = Compare(flat, ref); diff.has_value()) {
        std::ostringstream os;
        os << *diff << " after op " << op << " ("
           << (mode == CombineMode::kAverage ? "average" : "take-max") << ")";
        return os.str();
      }
    }
    return std::nullopt;
  }

  const WorldOpsCase& c;
  CombineMode mode;
  Random rng;
};

CheckResult FlatMatchesReference(const WorldOpsCase& c) {
  for (const CombineMode mode : {CombineMode::kAverage, CombineMode::kTakeMax}) {
    if (CheckResult r = OpRunner(c, mode).Run(); r.has_value()) return r;
  }
  return std::nullopt;
}

TEST(WorldNodeProperty, FlatLayoutMatchesMapReference) {
  ForAll<WorldOpsCase>(0x301d0001, 100, GenerateWorldOpsCase, FlatMatchesReference);
}

/// The world row of the extended system (Eqs. 8-9) from its definition:
/// entries taken in ascending page order, whatever order `entry_order` lists
/// them in; per local target, the terms (1/out(r)) * alpha(r) summed in that
/// order and divided by alpha_w after the sum (kUniform: alpha(r) is the
/// uniform share and nothing is divided); the dangling share added to every
/// column; then the clamp and the self-loop, columns ascending.
std::vector<markov::MatrixEntry> ReferenceWorldRow(const graph::Subgraph& fragment,
                                                   const WorldNode& world,
                                                   const std::vector<size_t>& entry_order,
                                                   double denominator, size_t global_size,
                                                   core::WorldLinkWeighting weighting) {
  const bool score_proportional =
      weighting == core::WorldLinkWeighting::kScoreProportional;
  std::vector<size_t> by_page = entry_order;
  std::sort(by_page.begin(), by_page.end(),
            [&](size_t a, size_t b) { return world.pages()[a] < world.pages()[b]; });
  const double uniform_share =
      world.NumEntries() > 0 ? 1.0 / static_cast<double>(world.NumEntries()) : 0.0;
  std::map<uint32_t, double> in_mass;
  for (size_t e : by_page) {
    const double alpha = score_proportional ? world.scores()[e] : uniform_share;
    const double term = (1.0 / static_cast<double>(world.out_degrees()[e])) * alpha;
    for (PageId target : world.targets(e)) {
      const graph::Subgraph::LocalIndex t = fragment.LocalIndexOf(target);
      if (t != graph::Subgraph::kNotLocal) in_mass[t] += term;
    }
  }
  const size_t n = fragment.NumLocalPages();
  const double dangling_mass = world.TotalDanglingScore();
  const bool dangling = dangling_mass > 0 && n > 0;
  if (dangling) {
    for (uint32_t i = 0; i < n; ++i) in_mass.try_emplace(i, 0.0);
  }
  std::vector<markov::MatrixEntry> row;
  double mass = 0;
  for (const auto& [t, sum] : in_mass) {
    double weight = score_proportional ? sum / denominator : sum;
    if (dangling) weight += (dangling_mass / denominator) / static_cast<double>(global_size);
    row.push_back({t, weight});
    mass += weight;
  }
  const double scale = mass > 1.0 ? 1.0 / mass : 1.0;
  for (markov::MatrixEntry& e : row) e.weight = e.weight * scale;
  const double self_loop = 1.0 - std::min(mass * scale, 1.0);
  if (self_loop > 0) row.push_back({static_cast<uint32_t>(n), self_loop});
  return row;
}

CheckResult WorldRowMatchesPageOrderReference(const WorldOpsCase& c) {
  Random rng(c.seed ^ 0x9e3779b9ULL);
  // Fragment: local pages are the target ids [1000, 1000 + num_targets),
  // minus a random few, so some world targets project away.
  std::vector<PageId> pages;
  std::vector<std::vector<PageId>> successors;
  for (size_t t = 0; t < c.num_targets; ++t) {
    if (t > 0 && rng.NextBool(0.2)) continue;
    pages.push_back(static_cast<PageId>(1000 + t));
    successors.push_back({static_cast<PageId>(rng.NextBounded(c.num_pages))});
  }
  const graph::Subgraph fragment =
      graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));
  // A world node rich in ties: few out-degrees, scores from a small grid.
  WorldNode world;
  ReferenceWorld unused;
  OpRunner(c, CombineMode::kAverage).Observations(world, unused, c.num_ops);
  std::vector<size_t> order(world.NumEntries());
  for (size_t e = 0; e < order.size(); ++e) order[e] = e;
  rng.Shuffle(order);  // Any gathering order: the reference sorts by page.

  const size_t global_size = 2000 + fragment.NumLocalPages();
  for (const auto weighting :
       {core::WorldLinkWeighting::kScoreProportional, core::WorldLinkWeighting::kUniform}) {
    for (const double denominator : {0.9, 0.05}) {
      const core::ExtendedGraphSystem system =
          core::BuildExtendedSystem(fragment, world, denominator, global_size, weighting);
      const std::vector<markov::MatrixEntry> want =
          ReferenceWorldRow(fragment, world, order, denominator, global_size, weighting);
      const auto got = system.matrix.Row(fragment.NumLocalPages());
      if (got.size() != want.size()) return "world row length differs";
      for (size_t k = 0; k < want.size(); ++k) {
        if (got[k].column != want[k].column || !SameBits(got[k].weight, want[k].weight)) {
          std::ostringstream os;
          os << "world row entry " << k << " differs (denominator " << denominator << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

TEST(WorldNodeProperty, PrepareWorldRowMatchesPageOrderReference) {
  ForAll<WorldOpsCase>(0x301d0002, 60, GenerateWorldOpsCase, WorldRowMatchesPageOrderReference);
}

/// A world node whose entries stress the world row's accumulation: extreme
/// out-degrees, signed zeros, subnormal and near-equal scores.
struct WideKeyCase {
  enum Shape { kMixed, kEmpty, kOneEntry, kAllEqual };
  uint64_t seed = 0;
  Shape shape = kMixed;
  size_t num_entries = 100;
  size_t num_targets = 6;  // Few targets, so each one collects many terms.

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " shape=" << shape << " entries=" << num_entries
       << " targets=" << num_targets;
    return os.str();
  }

  std::vector<WideKeyCase> Shrink() const {
    std::vector<WideKeyCase> candidates;
    if (shape == kMixed && num_entries > 2) {
      WideKeyCase c = *this;
      c.num_entries /= 2;
      candidates.push_back(c);
    }
    if (num_targets > 1) {
      WideKeyCase c = *this;
      c.num_targets /= 2;
      candidates.push_back(c);
    }
    return candidates;
  }
};

WideKeyCase GenerateWideKeyCase(uint64_t seed) {
  WideKeyCase c;
  c.seed = seed;
  Random rng(seed ^ 0x5ad1c0deULL);
  const uint64_t pick = rng.NextBounded(10);
  c.shape = pick < 7 ? WideKeyCase::kMixed : static_cast<WideKeyCase::Shape>(pick - 6);
  c.num_entries = 2 + rng.NextBounded(200);
  if (c.shape == WideKeyCase::kEmpty) c.num_entries = 0;
  if (c.shape == WideKeyCase::kOneEntry) c.num_entries = 1;
  c.num_targets = 1 + rng.NextBounded(8);
  return c;
}

/// Out-degrees at byte boundaries (255/256, 65535/65536) and the 32-bit
/// extremes.
constexpr uint32_t kWideDegrees[] = {1, 2, 255, 256, 65535, 65536, 16777216, 0xffffffffu};

/// Scores: signed zeros, subnormals differing only in their lowest byte,
/// 1.0 and its neighbours, one near-equal cluster, and many binades.
double WideScore(Random& rng, double cluster) {
  switch (rng.NextBounded(7)) {
    case 0:
      return rng.NextBool(0.5) ? 0.0 : -0.0;
    case 1:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.NextBounded(3));
    case 2:
      return std::numeric_limits<double>::min() * 0.5;
    case 3:  // 1.0 or a neighbour of it.
      return std::nextafter(1.0, static_cast<double>(rng.NextBounded(3)));
    case 4:  // The cluster base, changed in one low byte of its mantissa.
      return std::bit_cast<double>(std::bit_cast<uint64_t>(cluster) +
                                   (rng.NextBounded(4) << (8 * rng.NextBounded(5))));
    case 5:  // Any of 40 binades below 1.
      return std::ldexp(rng.NextDouble(), -static_cast<int>(rng.NextBounded(40)));
    default:
      return rng.NextDouble();
  }
}

CheckResult WorldRowMatchesPageOrderReferenceOnWideKeys(const WideKeyCase& c) {
  Random rng(c.seed);
  // Fragment: local pages [1000, 1000 + num_targets); entries also link to
  // two non-local ids, which project away.
  std::vector<PageId> pages;
  std::vector<std::vector<PageId>> successors;
  for (size_t t = 0; t < c.num_targets; ++t) {
    pages.push_back(static_cast<PageId>(1000 + t));
    successors.push_back({static_cast<PageId>(rng.NextBounded(500))});
  }
  const graph::Subgraph fragment =
      graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));

  // Entries on distinct pages, so equal (degree, score) pairs land on
  // different pages; a kAllEqual world repeats one (degree, score) pair.
  const uint32_t equal_degree = kWideDegrees[rng.NextBounded(std::size(kWideDegrees))];
  const double cluster = 0.25 + 0.5 * rng.NextDouble();
  const double equal_score = WideScore(rng, cluster);
  std::set<PageId> used;
  WorldNode world;
  for (size_t e = 0; e < c.num_entries; ++e) {
    PageId page = 0;
    do {
      page = static_cast<PageId>(2000 + rng.NextBounded(100000));
    } while (!used.insert(page).second);
    uint32_t degree = equal_degree;
    double score = equal_score;
    if (c.shape != WideKeyCase::kAllEqual) {
      degree = rng.NextBool(0.8)
                   ? kWideDegrees[rng.NextBounded(std::size(kWideDegrees))]
                   : static_cast<uint32_t>(1 + rng.NextBounded(0xfffffffeULL));
      score = WideScore(rng, cluster);
    } else if (score == 0.0 && rng.NextBool(0.5)) {
      score = -score;  // Signed zeros add alike.
    }
    std::vector<PageId> targets(1 + rng.NextBounded(3));
    for (PageId& t : targets) {
      t = static_cast<PageId>(1000 + rng.NextBounded(c.num_targets + 2));
    }
    world.Observe(page, degree, score, targets, CombineMode::kAverage);
  }
  std::vector<size_t> order(world.NumEntries());
  for (size_t e = 0; e < order.size(); ++e) order[e] = e;
  rng.Shuffle(order);

  const size_t global_size = 100000 + fragment.NumLocalPages();
  for (const auto weighting :
       {core::WorldLinkWeighting::kScoreProportional, core::WorldLinkWeighting::kUniform}) {
    for (const double denominator : {0.9, 0.05}) {
      const core::ExtendedGraphSystem system =
          core::BuildExtendedSystem(fragment, world, denominator, global_size, weighting);
      const std::vector<markov::MatrixEntry> want =
          ReferenceWorldRow(fragment, world, order, denominator, global_size, weighting);
      const auto got = system.matrix.Row(fragment.NumLocalPages());
      if (got.size() != want.size()) return "world row length differs";
      for (size_t k = 0; k < want.size(); ++k) {
        if (got[k].column != want[k].column || !SameBits(got[k].weight, want[k].weight)) {
          std::ostringstream os;
          os << "world row entry " << k << " differs (denominator " << denominator << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

TEST(WorldNodeProperty, PrepareWorldRowMatchesPageOrderReferenceOnWideKeys) {
  ForAll<WideKeyCase>(0x301d0003, 200, GenerateWideKeyCase,
                      WorldRowMatchesPageOrderReferenceOnWideKeys);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
