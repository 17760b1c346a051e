// Property tests of the flat fragment (DESIGN.md §6b.7) over five id-space
// shapes — dense, clustered (web-crawl-like), sparse over a wide range, a
// single page, and pages at the ends of the 32-bit id space:
//
// - LocalIndexOf / Contains agree with a std::map for present ids, absent
//   ids inside [first page, last page], and ids outside it;
// - the linear Subgraph::Merge and its index maps agree with a merge built
//   through FromKnowledge inside the test, and SubgraphUnion's lookups and
//   the merged system's local rows agree with that merged fragment;
// - the extended system's local rows, written straight into the CSR, are
//   bit-identical to rows built with SparseMatrixBuilder;
// - FromSortedCsr JXP_CHECK-fails on unsorted or duplicate pages.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/world_node.h"
#include "graph/subgraph.h"
#include "markov/sparse_matrix.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using graph::PageId;
using graph::Subgraph;

constexpr PageId kMaxId = std::numeric_limits<PageId>::max();

enum class Shape { kDense, kClustered, kSparse, kSinglePage, kIdSpaceEnds };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kDense:
      return "dense";
    case Shape::kClustered:
      return "clustered";
    case Shape::kSparse:
      return "sparse";
    case Shape::kSinglePage:
      return "single";
    case Shape::kIdSpaceEnds:
      return "ends";
  }
  return "?";
}

/// One randomized pair of overlapping fragments; everything derives from
/// `seed`, `shape` and `num_pages`.
struct FragmentCase {
  uint64_t seed = 0;
  Shape shape = Shape::kDense;
  size_t num_pages = 64;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " shape=" << ShapeName(shape) << " pages=" << num_pages;
    return os.str();
  }

  std::vector<FragmentCase> Shrink() const {
    std::vector<FragmentCase> candidates;
    if (num_pages > 1) {
      FragmentCase c = *this;
      c.num_pages /= 2;
      candidates.push_back(c);
    }
    return candidates;
  }
};

FragmentCase GenerateFragmentCase(uint64_t seed) {
  FragmentCase c;
  c.seed = seed;
  Random rng(seed ^ 0x5b6a9f7e11ULL);
  c.shape = static_cast<Shape>(rng.NextBounded(5));
  c.num_pages = c.shape == Shape::kSinglePage ? 1 : 1 + rng.NextBounded(400);
  return c;
}

/// Draws a set of `n` page ids of the case's shape.
std::set<PageId> DrawPages(const FragmentCase& c, size_t n, Random& rng) {
  std::set<PageId> pages;
  const auto span_from = [&](uint64_t base, uint64_t span) {
    while (pages.size() < n) {
      pages.insert(static_cast<PageId>(base + rng.NextBounded(span)));
    }
  };
  switch (c.shape) {
    case Shape::kDense:
      span_from(rng.NextBounded(1u << 20), n + n / 8 + 1);
      break;
    case Shape::kClustered: {
      // A crawl: runs of nearby ids around a few seeds, far apart.
      const size_t num_clusters = 1 + rng.NextBounded(6);
      std::vector<uint64_t> seeds(num_clusters);
      for (uint64_t& s : seeds) s = rng.NextBounded(1u << 24);
      while (pages.size() < n) {
        const uint64_t seed = seeds[rng.NextBounded(num_clusters)];
        pages.insert(static_cast<PageId>(seed + rng.NextBounded(4 * n + 8)));
      }
      break;
    }
    case Shape::kSparse:
      // About 8 directory words per page: sparse, but still directory-backed.
      span_from(rng.NextBounded(1u << 24), 512 * n + 64);
      break;
    case Shape::kSinglePage:
      span_from(rng.NextBounded(uint64_t{kMaxId}), 1);
      break;
    case Shape::kIdSpaceEnds: {
      // Low end, high end, or both (a span of 2^32: no directory).
      const uint64_t variant = rng.NextBounded(3);
      while (pages.size() < n) {
        const bool high = variant == 1 || (variant == 2 && rng.NextBool(0.5));
        const uint64_t offset = rng.NextBounded(2 * n + 2);
        pages.insert(high ? static_cast<PageId>(kMaxId - 1 - offset)
                          : static_cast<PageId>(offset));
      }
      break;
    }
  }
  return pages;
}

/// Successor lists for `pages`: a mix of the fragment's own pages, ids
/// between them, and ids outside the fragment's range.
std::vector<std::vector<PageId>> DrawSuccessors(const std::vector<PageId>& pages,
                                                Random& rng) {
  const PageId lo = pages.front();
  const PageId hi = pages.back();
  std::vector<std::vector<PageId>> successors(pages.size());
  for (auto& list : successors) {
    const size_t degree = rng.NextBounded(9);  // 0: a dangling page.
    std::set<PageId> targets;
    for (size_t j = 0; j < degree; ++j) {
      uint64_t target = 0;
      switch (rng.NextBounded(4)) {
        case 0:
          target = pages[rng.NextBounded(pages.size())];
          break;
        case 1:
          target = lo + rng.NextBounded(uint64_t{hi} - lo + 1);
          break;
        case 2:
          target = rng.NextBounded(uint64_t{lo} + 1);
          break;
        default:
          target = hi + rng.NextBounded(uint64_t{kMaxId} - hi);
          break;
      }
      targets.insert(static_cast<PageId>(target));
    }
    list.assign(targets.begin(), targets.end());
  }
  return successors;
}

std::vector<PageId> AsVector(std::span<const PageId> ids) {
  return {ids.begin(), ids.end()};
}

/// A and B of the case's shape; B holds a random subset of A's pages with
/// A's knowledge of them (the full-merge precondition) plus pages of its own.
struct FragmentPair {
  Subgraph a;
  Subgraph b;
};

FragmentPair BuildPair(const FragmentCase& c) {
  Random rng(c.seed);
  const std::set<PageId> a_set = DrawPages(c, c.num_pages, rng);
  const std::vector<PageId> a_pages(a_set.begin(), a_set.end());
  const std::vector<std::vector<PageId>> a_successors = DrawSuccessors(a_pages, rng);
  FragmentPair pair;
  pair.a = Subgraph::FromKnowledge(a_pages, a_successors);

  std::map<PageId, std::vector<PageId>> b_knowledge;
  for (size_t i = 0; i < a_pages.size(); ++i) {
    if (rng.NextBool(0.3)) b_knowledge[a_pages[i]] = a_successors[i];
  }
  const std::set<PageId> extra = DrawPages(c, 1 + rng.NextBounded(c.num_pages), rng);
  const std::vector<PageId> extra_pages(extra.begin(), extra.end());
  const std::vector<std::vector<PageId>> extra_successors =
      DrawSuccessors(extra_pages, rng);
  for (size_t i = 0; i < extra_pages.size(); ++i) {
    // A page both crawled has one successor list: A's.
    const PageId page = extra_pages[i];
    const auto in_a = std::lower_bound(a_pages.begin(), a_pages.end(), page);
    if (in_a != a_pages.end() && *in_a == page) {
      b_knowledge.try_emplace(page, a_successors[in_a - a_pages.begin()]);
    } else {
      b_knowledge.try_emplace(page, extra_successors[i]);
    }
  }
  std::vector<PageId> b_pages;
  std::vector<std::vector<PageId>> b_successors;
  for (auto& [page, list] : b_knowledge) {
    b_pages.push_back(page);
    b_successors.push_back(list);
  }
  // Hand B in reverse order: FromKnowledge sorts.
  std::reverse(b_pages.begin(), b_pages.end());
  std::reverse(b_successors.begin(), b_successors.end());
  pair.b = Subgraph::FromKnowledge(std::move(b_pages), std::move(b_successors));
  return pair;
}

/// Ids to probe: every page, absent ids between first and last page, and
/// ids outside that range.
std::vector<PageId> ProbeIds(const Subgraph& fragment, Random& rng) {
  const auto pages = fragment.Pages();
  std::vector<PageId> probes(pages.begin(), pages.end());
  const PageId lo = pages.front();
  const PageId hi = pages.back();
  for (PageId p : pages) {
    if (p > 0) probes.push_back(p - 1);
    if (p < kMaxId) probes.push_back(p + 1);
  }
  for (int j = 0; j < 64; ++j) {
    probes.push_back(static_cast<PageId>(lo + rng.NextBounded(uint64_t{hi} - lo + 1)));
  }
  probes.insert(probes.end(), {0, 1, 63, 64, kMaxId, kMaxId - 1});
  if (lo > 0) probes.push_back(static_cast<PageId>(rng.NextBounded(lo)));
  if (hi < kMaxId) {
    probes.push_back(static_cast<PageId>(hi + 1 + rng.NextBounded(kMaxId - hi)));
  }
  return probes;
}

CheckResult CheckLookups(const Subgraph& fragment, Random& rng) {
  std::map<PageId, Subgraph::LocalIndex> reference;
  for (Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
    reference[fragment.GlobalId(i)] = i;
  }
  for (PageId id : ProbeIds(fragment, rng)) {
    const auto it = reference.find(id);
    const Subgraph::LocalIndex expected =
        it == reference.end() ? Subgraph::kNotLocal : it->second;
    if (fragment.LocalIndexOf(id) != expected) {
      return "LocalIndexOf(" + std::to_string(id) + ") = " +
             std::to_string(fragment.LocalIndexOf(id)) + ", expected " +
             std::to_string(expected);
    }
    if (fragment.Contains(id) != (it != reference.end())) {
      return "Contains(" + std::to_string(id) + ") disagrees with the map";
    }
  }
  return std::nullopt;
}

CheckResult CheckMerge(const Subgraph& a, const Subgraph& b) {
  std::vector<Subgraph::LocalIndex> a_index;
  std::vector<Subgraph::LocalIndex> b_index;
  const Subgraph merged = Subgraph::Merge(a, b, &a_index, &b_index);

  // The reference: every page of A, then B's pages A lacks, through the
  // sorting FromKnowledge.
  std::vector<PageId> pages;
  std::vector<std::vector<PageId>> successors;
  for (Subgraph::LocalIndex i = 0; i < a.NumLocalPages(); ++i) {
    pages.push_back(a.GlobalId(i));
    successors.push_back(AsVector(a.Successors(i)));
  }
  const auto a_pages = a.Pages();
  for (Subgraph::LocalIndex k = 0; k < b.NumLocalPages(); ++k) {
    if (std::binary_search(a_pages.begin(), a_pages.end(), b.GlobalId(k))) continue;
    pages.push_back(b.GlobalId(k));
    successors.push_back(AsVector(b.Successors(k)));
  }
  const Subgraph reference =
      Subgraph::FromKnowledge(std::move(pages), std::move(successors));

  if (AsVector(merged.Pages()) != AsVector(reference.Pages())) {
    return "merged pages differ";
  }
  for (Subgraph::LocalIndex i = 0; i < reference.NumLocalPages(); ++i) {
    if (AsVector(merged.Successors(i)) != AsVector(reference.Successors(i))) {
      return "successors of merged page " + std::to_string(i) + " differ";
    }
    const auto got = merged.LocalOutNeighbors(i);
    const auto want = reference.LocalOutNeighbors(i);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      return "local neighbours of merged page " + std::to_string(i) + " differ";
    }
  }
  if (a_index.size() != a.NumLocalPages() || b_index.size() != b.NumLocalPages()) {
    return "index map sizes differ from the fragments";
  }
  // An index map is right when it lands each page on the same page id.
  const auto check_map = [&](const Subgraph& from, const auto& index,
                             const char* name) -> CheckResult {
    for (Subgraph::LocalIndex i = 0; i < from.NumLocalPages(); ++i) {
      if (index[i] >= reference.NumLocalPages() ||
          reference.GlobalId(index[i]) != from.GlobalId(i)) {
        return std::string(name) + "[" + std::to_string(i) + "] is wrong";
      }
    }
    return std::nullopt;
  };
  if (CheckResult r = check_map(a, a_index, "a_index")) return r;
  return check_map(b, b_index, "b_index");
}

/// The local rows as built before the direct CSR write: one builder row
/// per page, sorted and merged by SparseMatrixBuilder::Build.
markov::SparseMatrix BuilderLocalRows(const Subgraph& fragment) {
  const size_t n = fragment.NumLocalPages();
  const uint32_t world_state = static_cast<uint32_t>(n);
  markov::SparseMatrixBuilder builder(n + 1);
  for (Subgraph::LocalIndex i = 0; i < n; ++i) {
    const size_t degree = fragment.GlobalOutDegree(i);
    if (degree == 0) continue;
    const double w = 1.0 / static_cast<double>(degree);
    for (Subgraph::LocalIndex j : fragment.LocalOutNeighbors(i)) builder.Add(i, j, w);
    const size_t external = fragment.NumExternalSuccessors(i);
    if (external > 0) builder.Add(i, world_state, w * static_cast<double>(external));
  }
  return builder.Build();
}

CheckResult CheckLocalRows(const Subgraph& fragment) {
  const size_t n = fragment.NumLocalPages();
  const core::ExtendedGraphSystem system =
      core::BuildExtendedSystem(fragment, core::WorldNode(), 0.5, 2 * n + 1);
  const markov::SparseMatrix reference = BuilderLocalRows(fragment);
  for (uint32_t i = 0; i < n; ++i) {
    const auto got = system.matrix.Row(i);
    const auto want = reference.Row(i);
    if (got.size() != want.size()) return "row " + std::to_string(i) + " size differs";
    for (size_t k = 0; k < got.size(); ++k) {
      const auto got_bits = std::bit_cast<uint64_t>(got[k].weight);
      if (got[k].column != want[k].column ||
          got_bits != std::bit_cast<uint64_t>(want[k].weight)) {
        return "row " + std::to_string(i) + " entry " + std::to_string(k) + " differs";
      }
    }
    if (std::bit_cast<uint64_t>(system.matrix.RowSum(i)) !=
        std::bit_cast<uint64_t>(reference.RowSum(i))) {
      return "row " + std::to_string(i) + " sum differs";
    }
  }
  return std::nullopt;
}

/// SubgraphUnion answers every lookup as the merged fragment does, with or
/// without its dense table, and the full merge's system built from it has
/// the merged fragment's local rows, bit for bit.
CheckResult CheckUnion(const Subgraph& a, const Subgraph& b, const Subgraph& merged,
                       Random& rng) {
  const graph::SubgraphUnion pages(a, b);
  if (pages.NumPages() != merged.NumLocalPages()) return "union page count differs";
  for (PageId id : ProbeIds(merged, rng)) {
    if (pages.IndexOf(id) != merged.LocalIndexOf(id)) {
      return "union IndexOf(" + std::to_string(id) + ") differs from the merged fragment";
    }
  }
  for (Subgraph::LocalIndex i = 0; i < merged.NumLocalPages(); ++i) {
    if (pages.InA(i) != a.Contains(merged.GlobalId(i))) {
      return "union InA(" + std::to_string(i) + ") is wrong";
    }
  }
  const size_t m = merged.NumLocalPages();
  core::WorldInMass no_world;
  no_world.Reset(m);
  core::ExtendedSystemCache cache;
  const markov::SparseMatrix& got =
      cache.PrepareMerged(pages, std::move(no_world), 0.5, m + 1,
                          core::WorldLinkWeighting::kScoreProportional)
          .matrix;
  const core::ExtendedGraphSystem want =
      core::BuildExtendedSystem(merged, core::WorldNode(), 0.5, m + 1);
  for (uint32_t i = 0; i <= m; ++i) {
    const auto got_row = got.Row(i);
    const auto want_row = want.matrix.Row(i);
    if (got_row.size() != want_row.size()) return "merged row " + std::to_string(i) + " length";
    for (size_t k = 0; k < got_row.size(); ++k) {
      if (got_row[k].column != want_row[k].column ||
          std::bit_cast<uint64_t>(got_row[k].weight) !=
              std::bit_cast<uint64_t>(want_row[k].weight)) {
        return "merged row " + std::to_string(i) + " differs";
      }
    }
  }
  return std::nullopt;
}

CheckResult FlatFragmentMatchesReferences(const FragmentCase& c) {
  const FragmentPair pair = BuildPair(c);
  Random rng(c.seed ^ 0x9b0be5ULL);
  for (const Subgraph* fragment : {&pair.a, &pair.b}) {
    if (CheckResult r = CheckLookups(*fragment, rng)) return r;
    if (CheckResult r = CheckLocalRows(*fragment)) return r;
  }
  if (CheckResult r = CheckMerge(pair.a, pair.b)) return r;
  if (CheckResult r = CheckMerge(pair.b, pair.a)) return r;
  const Subgraph merged = Subgraph::Merge(pair.a, pair.b);
  if (CheckResult r = CheckLookups(merged, rng)) return "merged: " + *r;
  if (CheckResult r = CheckUnion(pair.a, pair.b, merged, rng)) return r;
  return CheckLocalRows(merged);
}

TEST(SubgraphProperty, FlatFragmentMatchesReferences) {
  ForAll<FragmentCase>(0x5b6a0001, 150, GenerateFragmentCase,
                       FlatFragmentMatchesReferences);
}

TEST(SubgraphProperty, FromSortedCsrRejectsUnsortedOrDuplicatePages) {
  EXPECT_DEATH(Subgraph::FromSortedCsr({5, 3}, {0, 0, 0}, {}), "strictly ascending");
  EXPECT_DEATH(Subgraph::FromSortedCsr({3, 3}, {0, 0, 0}, {}), "strictly ascending");
  EXPECT_DEATH(Subgraph::FromSortedCsr({3, 5}, {0, 2, 2}, {9, 7}), "strictly ascending");
  const Subgraph ok = Subgraph::FromSortedCsr({3, 5}, {0, 2, 2}, {5, 7});
  EXPECT_EQ(ok.LocalIndexOf(5), 1u);
  ASSERT_EQ(ok.LocalOutNeighbors(0).size(), 1u);
  EXPECT_EQ(ok.LocalOutNeighbors(0)[0], 1u);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
