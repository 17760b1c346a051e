#ifndef JXP_CORE_WORLD_NODE_H_
#define JXP_CORE_WORLD_NODE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/jxp_options.h"
#include "graph/graph.h"

namespace jxp {
namespace core {

/// What a peer knows about one external page that links into its local
/// graph: the page's global out-degree, its most recently learned JXP score,
/// and which local pages it points to. This is the paper's "for every page r
/// in W we store out(r) and alpha(r), both learned from a previous meeting".
/// A view into a WorldNode; `targets` is invalidated by any change to it.
struct ExternalPageInfo {
  graph::PageId page = 0;
  /// Global out-degree of the external page (> 0 by construction: it has at
  /// least one out-link, namely the one into the local graph).
  uint32_t out_degree = 0;
  /// Last learned JXP score of the page.
  double score = 0;
  /// Local pages (global ids, sorted unique) this external page links to.
  std::span<const graph::PageId> targets;
};

/// The JXP world node: the aggregate of all pages a peer has not crawled.
///
/// It carries the peer's accumulated knowledge of *external in-links*: for
/// each known external page that points into the local fragment, an entry
/// (out-degree, score, targets). Links from external pages to other external
/// pages are represented implicitly by the world node's self-loop, whose
/// weight the extended-graph construction derives as the complement of the
/// outgoing weights (paper Eq. 9).
///
/// Layout (DESIGN.md §6b): flat arrays sorted by page id — entry i is
/// pages()[i] with out_degrees()[i], scores()[i] and the CSR slice
/// targets(i) — plus page-sorted dangling records. Both merge procedures
/// only take unions of entries, so every operation is a linear merge or
/// filter over these arrays, and iteration order is a function of the
/// content alone (a restored peer accumulates floats in the same order as
/// the live one).
class WorldNode {
 public:
  WorldNode() = default;

  /// Appends an entry for `page`, which must be larger than every entry page
  /// so far; `targets` must be sorted unique and non-empty. The O(|targets|)
  /// way to build a node from page-sorted records.
  void AppendEntry(graph::PageId page, uint32_t out_degree, double score,
                   std::span<const graph::PageId> targets);

  /// Appends a dangling record; `page` must exceed every dangling page so far.
  void AppendDangling(graph::PageId page, double score);

  /// Adopts page-sorted arrays as built by the wire decoder: entry i is
  /// pages[i] with targets [target_offsets[i], target_offsets[i+1]) of
  /// `targets` (target_offsets has one more element than pages). The caller
  /// guarantees the AppendEntry/AppendDangling ordering invariants.
  static WorldNode FromArrays(std::vector<graph::PageId> pages,
                              std::vector<uint32_t> out_degrees,
                              std::vector<double> scores,
                              std::vector<uint32_t> target_offsets,
                              std::vector<graph::PageId> targets,
                              std::vector<graph::PageId> dangling_pages,
                              std::vector<double> dangling_scores);

  /// The union of `base` and `incoming`. A page present on both sides must
  /// report the same out-degree; its targets are unioned and its score is
  /// `incoming`'s when `authoritative`, else the `mode` combination of
  /// base's and incoming's (in that order). O(|base| + |incoming|).
  ///
  /// `authoritative` marks reports from a peer hosting the page *locally*
  /// (or from this peer's own crawl of it): such a report carries the page's
  /// current score and overwrites the stored one instead of combining. This
  /// keeps the static-network behaviour of the paper (scores only grow
  /// there, so max == latest) while letting the network self-heal from
  /// transient overestimates after re-crawls and churn, which take-max would
  /// otherwise keep alive forever.
  static WorldNode Union(const WorldNode& base, const WorldNode& incoming,
                         CombineMode mode, bool authoritative);

  /// Folds `incoming` into this node: *this = Union(*this, incoming, ...).
  void Merge(const WorldNode& incoming, CombineMode mode, bool authoritative = false);

  /// Records (or refreshes) knowledge about external page `page`: `targets`
  /// (any order, duplicates allowed) are local pages it links to, `score`
  /// the reporting peer's JXP score for it. Appends in O(|targets|) when
  /// `page` is the largest page so far, else merges in linear time; batch
  /// callers build a page-sorted node and Merge it instead.
  void Observe(graph::PageId page, uint32_t out_degree, double score,
               std::span<const graph::PageId> targets, CombineMode mode,
               bool authoritative = false);

  /// Records (or refreshes) knowledge about an external *dangling* page
  /// (out-degree 0). Under the uniform-redistribution convention a dangling
  /// page effectively links to every page, so its score mass flows 1/N to
  /// each local page; the extended-graph construction adds that flow to the
  /// world row. Same `mode`/`authoritative` semantics as Union.
  void ObserveDangling(graph::PageId page, double score, CombineMode mode,
                       bool authoritative = false);

  /// Keeps only the entries and dangling records whose page satisfies
  /// `keep_page`, drops targets not satisfying `keep_target`, and erases
  /// entries left with no targets; in place, in one linear pass. Used to
  /// drop pages that became local and to project a world node onto one
  /// fragment.
  template <typename KeepPage, typename KeepTarget>
  void Retain(KeepPage keep_page, KeepTarget keep_target) {
    size_t kept_entries = 0;
    uint32_t kept_targets = 0;
    uint32_t begin = 0;
    for (size_t e = 0; e < pages_.size(); ++e) {
      const uint32_t end = target_offsets_[e + 1];
      const uint32_t first = kept_targets;
      if (keep_page(pages_[e])) {
        for (uint32_t k = begin; k < end; ++k) {
          if (keep_target(targets_[k])) targets_[kept_targets++] = targets_[k];
        }
      }
      begin = end;
      if (kept_targets == first) continue;
      pages_[kept_entries] = pages_[e];
      out_degrees_[kept_entries] = out_degrees_[e];
      scores_[kept_entries] = scores_[e];
      target_offsets_[++kept_entries] = kept_targets;
    }
    pages_.resize(kept_entries);
    out_degrees_.resize(kept_entries);
    scores_.resize(kept_entries);
    target_offsets_.resize(kept_entries + 1);
    targets_.resize(kept_targets);

    size_t kept_dangling = 0;
    for (size_t d = 0; d < dangling_pages_.size(); ++d) {
      if (!keep_page(dangling_pages_[d])) continue;
      dangling_pages_[kept_dangling] = dangling_pages_[d];
      dangling_scores_[kept_dangling++] = dangling_scores_[d];
    }
    dangling_pages_.resize(kept_dangling);
    dangling_scores_.resize(kept_dangling);
  }

  /// Scales every stored external score by `factor` (the Eq. 2 re-weighting
  /// of the baseline combine mode).
  void ScaleScores(double factor);

  /// Number of known external in-linking pages.
  size_t NumEntries() const { return pages_.size(); }

  /// Total number of known external in-links (sum of target-list sizes).
  size_t NumLinks() const { return targets_.size(); }

  /// Entry `i` (0 <= i < NumEntries()), in ascending page order.
  ExternalPageInfo entry(size_t i) const {
    return {pages_[i], out_degrees_[i], scores_[i], targets(i)};
  }

  /// Lookup by page (binary search); nullopt if unknown.
  std::optional<ExternalPageInfo> Find(graph::PageId page) const;

  /// Score of the dangling record for `page`; nullopt if unknown.
  std::optional<double> FindDangling(graph::PageId page) const;

  /// The flat arrays (see the class comment).
  std::span<const graph::PageId> pages() const { return pages_; }
  std::span<const uint32_t> out_degrees() const { return out_degrees_; }
  std::span<const double> scores() const { return scores_; }
  std::span<const uint32_t> target_offsets() const { return target_offsets_; }
  std::span<const graph::PageId> all_targets() const { return targets_; }
  std::span<const graph::PageId> targets(size_t i) const {
    return {targets_.data() + target_offsets_[i], targets_.data() + target_offsets_[i + 1]};
  }

  /// Known external dangling pages (ascending) and their scores.
  std::span<const graph::PageId> dangling_pages() const { return dangling_pages_; }
  std::span<const double> dangling_scores() const { return dangling_scores_; }

  /// Sum of the known external dangling pages' scores, in page order.
  double TotalDanglingScore() const;

  /// Wire size in bytes when shipped in a meeting message: per entry one
  /// page id (8) + out-degree (4) + score (8) + one id per target; per
  /// dangling entry id (8) + score (8).
  double WireBytes() const;

 private:
  std::vector<graph::PageId> pages_;
  std::vector<uint32_t> out_degrees_;
  std::vector<double> scores_;
  std::vector<uint32_t> target_offsets_ = {0};
  std::vector<graph::PageId> targets_;
  std::vector<graph::PageId> dangling_pages_;
  std::vector<double> dangling_scores_;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_WORLD_NODE_H_
