#ifndef JXP_GRAPH_SUBGRAPH_H_
#define JXP_GRAPH_SUBGRAPH_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace jxp {
namespace graph {

/// A peer's local Web fragment.
///
/// A Subgraph holds a set of crawled pages (identified by their global
/// PageIds) together with the *complete out-link knowledge* of those pages: a
/// crawler that fetched page p saw every link on p, so the fragment knows all
/// successors of its local pages — both the local ones (targets inside the
/// fragment) and the external ones (targets the peer has not crawled). That
/// is exactly the knowledge the JXP world node needs: links from local pages
/// to external pages become links to the world node.
///
/// Local pages are addressed by a dense local index [0, NumLocalPages()); the
/// mapping to global PageIds is exposed both ways.
///
/// The layout is flat (DESIGN.md §6b.7): the pages sorted by global id, a CSR
/// of their sorted successor lists, a CSR of the local adjacency, and a rank
/// directory over the sorted pages — one bit per id in [first page, last
/// page] plus the number of set bits before each 64-bit word — so that
/// LocalIndexOf is a range check, a bit test and a popcount.
class Subgraph {
 public:
  /// Dense index of a page within this fragment.
  using LocalIndex = uint32_t;

  /// Sentinel for "not a local page".
  static constexpr LocalIndex kNotLocal = static_cast<LocalIndex>(-1);

  Subgraph() = default;

  /// Builds the fragment holding `pages` (deduplicated, any order) of the
  /// global graph, copying each page's full successor list from `global`.
  static Subgraph Induce(const Graph& global, std::vector<PageId> pages);

  /// Builds a fragment from explicit out-link knowledge: `successors[i]` is
  /// the complete successor list (global ids, any order) of `pages[i]`.
  /// Sorts and deduplicates; meant for unsorted or untrusted input.
  static Subgraph FromKnowledge(std::vector<PageId> pages,
                                std::vector<std::vector<PageId>> successors);

  /// Adopts an already page-sorted fragment by move: `pages` strictly
  /// ascending, and the successors of pages[i] are
  /// successors[successor_offsets[i], successor_offsets[i+1]), strictly
  /// ascending. JXP_CHECK-fails on any violation.
  static Subgraph FromSortedCsr(std::vector<PageId> pages,
                                std::vector<uint64_t> successor_offsets,
                                std::vector<PageId> successors);

  /// Merges two fragments (the paper's full-merge step): the page set is the
  /// union, and each page keeps its full successor knowledge. Pages known to
  /// both peers must agree on their successor lists, which holds by
  /// construction since both crawled the same global page; a shared page
  /// keeps `a`'s list. A linear two-way merge of the sorted pages. When
  /// given, `a_index` / `b_index` receive, per local page of `a` / `b`, its
  /// local index in the merged fragment.
  static Subgraph Merge(const Subgraph& a, const Subgraph& b,
                        std::vector<LocalIndex>* a_index = nullptr,
                        std::vector<LocalIndex>* b_index = nullptr);

  /// Number of local pages.
  size_t NumLocalPages() const { return pages_.size(); }

  /// Number of intra-fragment links.
  size_t NumLocalEdges() const { return local_out_targets_.size(); }

  /// Number of links from local pages to external pages.
  size_t NumExternalOutEdges() const { return succ_.size() - local_out_targets_.size(); }

  /// Global id of a local page.
  PageId GlobalId(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return pages_[i];
  }

  /// All local pages, sorted by global id ascending.
  std::span<const PageId> Pages() const { return pages_; }

  /// Local index of a global page, or kNotLocal.
  LocalIndex LocalIndexOf(PageId global) const {
    // Ids below the first page wrap around to offsets >= span_.
    const uint32_t offset = global - first_page_;
    if (offset >= span_) return kNotLocal;
    if (rank_bits_.empty()) return SearchPages(global);
    const uint64_t word = rank_bits_[offset >> 6];
    const uint64_t bit = uint64_t{1} << (offset & 63);
    if ((word & bit) == 0) return kNotLocal;
    const auto below = static_cast<LocalIndex>(std::popcount(word & (bit - 1)));
    return rank_before_[offset >> 6] + below;
  }

  /// True iff the fragment contains `global`.
  bool Contains(PageId global) const { return LocalIndexOf(global) != kNotLocal; }

  /// The complete successor list (global ids, sorted) of local page `i` —
  /// the page's true global out-links.
  std::span<const PageId> Successors(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return {succ_.data() + succ_offsets_[i], succ_.data() + succ_offsets_[i + 1]};
  }

  /// The page's true global out-degree (local + external successors).
  size_t GlobalOutDegree(LocalIndex i) const { return Successors(i).size(); }

  /// Successors of `i` that are themselves local pages, as local indices.
  std::span<const LocalIndex> LocalOutNeighbors(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return {local_out_targets_.data() + local_out_offsets_[i],
            local_out_targets_.data() + local_out_offsets_[i + 1]};
  }

  /// Number of successors of `i` that are external pages.
  size_t NumExternalSuccessors(LocalIndex i) const {
    return GlobalOutDegree(i) - LocalOutNeighbors(i).size();
  }

  /// The union of all successor lists, as sorted unique global ids. This is
  /// the `successors(A)` set used by the pre-meetings synopsis (Section 4.3).
  std::vector<PageId> AllSuccessors() const;

 private:
  /// A fragment whose rank directory would need more than 1024 words plus 16
  /// per page keeps none and binary-searches pages_ instead, so hostile ids
  /// (a wire message or state file holding pages 0 and 2^32 - 2) cost O(n)
  /// memory, not 800 MB. The benchmark's fragments need at most 2.2 words
  /// per page and 2.3 KB (DESIGN.md §6b.7).
  static constexpr size_t kDirectoryFreeWords = 1024;
  static constexpr size_t kDirectoryWordsPerPage = 16;

  /// Rebuilds the rank directory and the local adjacency CSR from pages_ /
  /// succ_, checking that every successor list is strictly ascending.
  void BuildDerivedIndexes();

  /// LocalIndexOf for a fragment without a rank directory.
  LocalIndex SearchPages(PageId global) const;

  std::vector<PageId> pages_;
  // Rank directory over [first_page_, first_page_ + span_): bit o of
  // rank_bits_ is set iff page first_page_ + o is local, and
  // rank_before_[w] counts the set bits of words [0, w).
  PageId first_page_ = 0;
  uint64_t span_ = 0;
  std::vector<uint64_t> rank_bits_;
  std::vector<LocalIndex> rank_before_;
  // CSR over pages_ of complete successor lists (global ids, sorted).
  std::vector<uint64_t> succ_offsets_ = {0};
  std::vector<PageId> succ_;
  // CSR over pages_ of intra-fragment adjacency (local indices).
  std::vector<uint64_t> local_out_offsets_ = {0};
  std::vector<LocalIndex> local_out_targets_;
};

/// The page set of Subgraph::Merge(a, b), addressed by the merged fragment's
/// local indices (ascending page order) without building that fragment: each
/// page of `a` / `b` maps to its merged index, and IndexOf maps any page id
/// to its merged index. Refers to `a` and `b`, which must outlive it.
///
/// IndexOf reads a dense table over [first merged page, last merged page]
/// when that span needs at most kTableFreeSlots plus kTableSlotsPerPage
/// slots per merged page — a load and no data-dependent branch, which the
/// full merge's per-target lookups need (DESIGN.md §6b.9). Wider id spans
/// (hostile or sparse ids) keep no table and look the page up in the two
/// fragments' rank directories instead, so memory stays O(pages).
class SubgraphUnion {
 public:
  using LocalIndex = Subgraph::LocalIndex;

  /// One linear two-way merge of the two sorted page lists.
  SubgraphUnion(const Subgraph& a, const Subgraph& b);

  /// |V_a ∪ V_b|.
  size_t NumPages() const { return in_a_.size(); }

  /// Merged index of each page of `a` / `b` (both ascending).
  std::span<const LocalIndex> a_index() const { return a_index_; }
  std::span<const LocalIndex> b_index() const { return b_index_; }

  /// Merged index of `page`, or Subgraph::kNotLocal.
  LocalIndex IndexOf(PageId page) const {
    if (!table_.empty()) {
      // Ids below the first page wrap around to offsets >= the table size.
      const uint32_t offset = page - first_page_;
      return offset < table_.size() ? table_[offset] : Subgraph::kNotLocal;
    }
    const LocalIndex i = a_.LocalIndexOf(page);
    if (i != Subgraph::kNotLocal) return a_index_[i];
    const LocalIndex k = b_.LocalIndexOf(page);
    return k == Subgraph::kNotLocal ? Subgraph::kNotLocal : b_index_[k];
  }

  /// True iff merged page `merged` (< NumPages()) is a page of `a`.
  bool InA(LocalIndex merged) const { return in_a_[merged] != 0; }

  /// Calls visit(from, i) once per merged page, in merged-index order, with
  /// the fragment and local index whose successor list the page keeps: `a`'s
  /// for a shared page, as in Subgraph::Merge.
  template <typename Visit>
  void ForEachPage(Visit visit) const {
    size_t i = 0;
    size_t k = 0;
    for (LocalIndex merged = 0; merged < in_a_.size(); ++merged) {
      if (in_a_[merged]) {
        visit(a_, static_cast<LocalIndex>(i++));
        if (k < b_index_.size() && b_index_[k] == merged) ++k;
      } else {
        visit(b_, static_cast<LocalIndex>(k++));
      }
    }
  }

 private:
  static constexpr size_t kTableFreeSlots = 4096;
  static constexpr size_t kTableSlotsPerPage = 64;

  const Subgraph& a_;
  const Subgraph& b_;
  std::vector<LocalIndex> a_index_;
  std::vector<LocalIndex> b_index_;
  std::vector<uint8_t> in_a_;  // Per merged page.
  PageId first_page_ = 0;
  std::vector<LocalIndex> table_;  // Merged index by page - first_page_.
};

}  // namespace graph
}  // namespace jxp

#endif  // JXP_GRAPH_SUBGRAPH_H_
