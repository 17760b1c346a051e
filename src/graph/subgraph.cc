#include "graph/subgraph.h"

#include <algorithm>
#include <bit>

namespace jxp {
namespace graph {

Subgraph Subgraph::Induce(const Graph& global, std::vector<PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  Subgraph sg;
  sg.pages_ = std::move(pages);
  sg.succ_offsets_.assign(sg.pages_.size() + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < sg.pages_.size(); ++i) {
    JXP_CHECK_LT(sg.pages_[i], global.NumNodes());
    total += global.OutDegree(sg.pages_[i]);
    sg.succ_offsets_[i + 1] = total;
  }
  sg.succ_.reserve(total);
  for (PageId p : sg.pages_) {
    const auto neighbors = global.OutNeighbors(p);
    sg.succ_.insert(sg.succ_.end(), neighbors.begin(), neighbors.end());
  }
  sg.BuildDerivedIndexes();
  return sg;
}

Subgraph Subgraph::FromKnowledge(std::vector<PageId> pages,
                                 std::vector<std::vector<PageId>> successors) {
  JXP_CHECK_EQ(pages.size(), successors.size());
  // Sort pages, carrying their successor lists along.
  std::vector<size_t> order(pages.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&pages](size_t a, size_t b) { return pages[a] < pages[b]; });

  Subgraph sg;
  sg.succ_offsets_ = {0};
  PageId prev = kInvalidPage;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const size_t src = order[rank];
    if (pages[src] == prev) continue;  // Deduplicate pages.
    prev = pages[src];
    sg.pages_.push_back(pages[src]);
    std::vector<PageId>& succ = successors[src];
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    sg.succ_.insert(sg.succ_.end(), succ.begin(), succ.end());
    sg.succ_offsets_.push_back(sg.succ_.size());
  }
  sg.BuildDerivedIndexes();
  return sg;
}

Subgraph Subgraph::FromSortedCsr(std::vector<PageId> pages,
                                 std::vector<uint64_t> successor_offsets,
                                 std::vector<PageId> successors) {
  JXP_CHECK_EQ(successor_offsets.size(), pages.size() + 1);
  JXP_CHECK_EQ(successor_offsets.front(), 0u);
  JXP_CHECK_EQ(successor_offsets.back(), successors.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    JXP_CHECK_LE(successor_offsets[i], successor_offsets[i + 1]);
    if (i > 0) {
      JXP_CHECK_LT(pages[i - 1], pages[i]) << "pages must be strictly ascending";
    }
  }
  Subgraph sg;
  sg.pages_ = std::move(pages);
  sg.succ_offsets_ = std::move(successor_offsets);
  sg.succ_ = std::move(successors);
  sg.BuildDerivedIndexes();
  return sg;
}

Subgraph Subgraph::Merge(const Subgraph& a, const Subgraph& b,
                         std::vector<LocalIndex>* a_index,
                         std::vector<LocalIndex>* b_index) {
  const SubgraphUnion pages(a, b);
  Subgraph sg;
  sg.pages_.reserve(pages.NumPages());
  sg.succ_offsets_.reserve(pages.NumPages() + 1);
  sg.succ_.reserve(a.succ_.size() + b.succ_.size());
  pages.ForEachPage([&sg](const Subgraph& from, LocalIndex i) {
    const auto succ = from.Successors(i);
    sg.pages_.push_back(from.pages_[i]);
    sg.succ_.insert(sg.succ_.end(), succ.begin(), succ.end());
    sg.succ_offsets_.push_back(sg.succ_.size());
  });
  if (a_index != nullptr) a_index->assign(pages.a_index().begin(), pages.a_index().end());
  if (b_index != nullptr) b_index->assign(pages.b_index().begin(), pages.b_index().end());
  sg.BuildDerivedIndexes();
  return sg;
}

SubgraphUnion::SubgraphUnion(const Subgraph& a, const Subgraph& b)
    : a_(a), b_(b), a_index_(a.NumLocalPages()), b_index_(b.NumLocalPages()) {
  const auto a_pages = a.Pages();
  const auto b_pages = b.Pages();
  in_a_.reserve(a_pages.size() + b_pages.size());
  size_t i = 0;
  size_t k = 0;
  while (i < a_pages.size() || k < b_pages.size()) {
    const bool take_a = k == b_pages.size() || (i < a_pages.size() && a_pages[i] <= b_pages[k]);
    const bool take_b = i == a_pages.size() || (k < b_pages.size() && b_pages[k] <= a_pages[i]);
    // A shared page (both true) takes one merged index.
    const auto merged = static_cast<LocalIndex>(in_a_.size());
    in_a_.push_back(take_a ? 1 : 0);
    if (take_a) a_index_[i++] = merged;
    if (take_b) b_index_[k++] = merged;
  }
  if (in_a_.empty()) return;
  first_page_ = std::min(a_pages.empty() ? b_pages.front() : a_pages.front(),
                         b_pages.empty() ? a_pages.front() : b_pages.front());
  const PageId last = std::max(a_pages.empty() ? b_pages.back() : a_pages.back(),
                               b_pages.empty() ? a_pages.back() : b_pages.back());
  const uint64_t span = static_cast<uint64_t>(last - first_page_) + 1;
  if (span > kTableFreeSlots + kTableSlotsPerPage * in_a_.size()) return;
  table_.assign(static_cast<size_t>(span), Subgraph::kNotLocal);
  for (i = 0; i < a_pages.size(); ++i) table_[a_pages[i] - first_page_] = a_index_[i];
  for (k = 0; k < b_pages.size(); ++k) table_[b_pages[k] - first_page_] = b_index_[k];
}

std::vector<PageId> Subgraph::AllSuccessors() const {
  std::vector<PageId> all(succ_.begin(), succ_.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

void Subgraph::BuildDerivedIndexes() {
  first_page_ = pages_.empty() ? 0 : pages_.front();
  span_ = pages_.empty() ? 0 : static_cast<uint64_t>(pages_.back() - first_page_) + 1;
  const size_t words = static_cast<size_t>((span_ + 63) / 64);
  rank_bits_.clear();
  rank_before_.clear();
  if (words <= kDirectoryFreeWords + kDirectoryWordsPerPage * pages_.size()) {
    rank_bits_.assign(words, 0);
    for (PageId page : pages_) {
      const uint32_t offset = page - first_page_;
      rank_bits_[offset >> 6] |= uint64_t{1} << (offset & 63);
    }
    rank_before_.resize(words);
    LocalIndex rank = 0;
    for (size_t w = 0; w < words; ++w) {
      rank_before_[w] = rank;
      rank += static_cast<LocalIndex>(std::popcount(rank_bits_[w]));
    }
  }

  // Successors ascend and local indices follow page order, so each page's
  // local targets come out ascending and unique.
  local_out_offsets_.resize(pages_.size() + 1);
  local_out_offsets_[0] = 0;
  local_out_targets_.clear();
  local_out_targets_.reserve(succ_.size());
  for (LocalIndex i = 0; i < pages_.size(); ++i) {
    const auto successors = Successors(i);
    for (size_t j = 0; j < successors.size(); ++j) {
      if (j > 0) {
        JXP_CHECK_LT(successors[j - 1], successors[j])
            << "successors must be strictly ascending";
      }
      const LocalIndex t = LocalIndexOf(successors[j]);
      if (t != kNotLocal) local_out_targets_.push_back(t);
    }
    local_out_offsets_[i + 1] = local_out_targets_.size();
  }
}

Subgraph::LocalIndex Subgraph::SearchPages(PageId global) const {
  const auto it = std::lower_bound(pages_.begin(), pages_.end(), global);
  if (it == pages_.end() || *it != global) return kNotLocal;
  return static_cast<LocalIndex>(it - pages_.begin());
}

}  // namespace graph
}  // namespace jxp
