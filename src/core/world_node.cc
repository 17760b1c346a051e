#include "core/world_node.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace jxp {
namespace core {

namespace {

double Combine(CombineMode mode, double existing, double incoming) {
  return mode == CombineMode::kTakeMax ? std::max(existing, incoming)
                                       : 0.5 * (existing + incoming);
}

}  // namespace

void WorldNode::AppendEntry(graph::PageId page, uint32_t out_degree, double score,
                            std::span<const graph::PageId> targets) {
  JXP_CHECK_GT(out_degree, 0u) << "external in-linking page must have out-links";
  JXP_CHECK_GE(score, 0.0);
  JXP_CHECK(!targets.empty());
  JXP_CHECK(pages_.empty() || page > pages_.back()) << "world entries must ascend";
  pages_.push_back(page);
  out_degrees_.push_back(out_degree);
  scores_.push_back(score);
  targets_.insert(targets_.end(), targets.begin(), targets.end());
  target_offsets_.push_back(static_cast<uint32_t>(targets_.size()));
}

void WorldNode::AppendDangling(graph::PageId page, double score) {
  JXP_CHECK_GE(score, 0.0);
  JXP_CHECK(dangling_pages_.empty() || page > dangling_pages_.back())
      << "dangling records must ascend";
  dangling_pages_.push_back(page);
  dangling_scores_.push_back(score);
}

WorldNode WorldNode::FromArrays(std::vector<graph::PageId> pages,
                                std::vector<uint32_t> out_degrees,
                                std::vector<double> scores,
                                std::vector<uint32_t> target_offsets,
                                std::vector<graph::PageId> targets,
                                std::vector<graph::PageId> dangling_pages,
                                std::vector<double> dangling_scores) {
  JXP_CHECK_EQ(out_degrees.size(), pages.size());
  JXP_CHECK_EQ(scores.size(), pages.size());
  JXP_CHECK_EQ(target_offsets.size(), pages.size() + 1);
  JXP_CHECK_EQ(target_offsets.front(), 0u);
  JXP_CHECK_EQ(target_offsets.back(), targets.size());
  JXP_CHECK_EQ(dangling_scores.size(), dangling_pages.size());
  WorldNode world;
  world.pages_ = std::move(pages);
  world.out_degrees_ = std::move(out_degrees);
  world.scores_ = std::move(scores);
  world.target_offsets_ = std::move(target_offsets);
  world.targets_ = std::move(targets);
  world.dangling_pages_ = std::move(dangling_pages);
  world.dangling_scores_ = std::move(dangling_scores);
  return world;
}

WorldNode WorldNode::Union(const WorldNode& base, const WorldNode& incoming,
                           CombineMode mode, bool authoritative) {
  WorldNode out;
  out.pages_.reserve(base.pages_.size() + incoming.pages_.size());
  out.out_degrees_.reserve(out.pages_.capacity());
  out.scores_.reserve(out.pages_.capacity());
  out.target_offsets_.reserve(out.pages_.capacity() + 1);
  out.targets_.reserve(base.targets_.size() + incoming.targets_.size());
  const auto copy = [&out](const WorldNode& from, size_t i, double score) {
    out.pages_.push_back(from.pages_[i]);
    out.out_degrees_.push_back(from.out_degrees_[i]);
    out.scores_.push_back(score);
    const auto targets = from.targets(i);
    out.targets_.insert(out.targets_.end(), targets.begin(), targets.end());
    out.target_offsets_.push_back(static_cast<uint32_t>(out.targets_.size()));
  };

  size_t i = 0;
  size_t j = 0;
  while (i < base.pages_.size() || j < incoming.pages_.size()) {
    const bool take_base = j == incoming.pages_.size() ||
                           (i < base.pages_.size() && base.pages_[i] < incoming.pages_[j]);
    const bool take_incoming = i == base.pages_.size() ||
                               (j < incoming.pages_.size() &&
                                incoming.pages_[j] < base.pages_[i]);
    if (take_base) {
      copy(base, i, base.scores_[i]);
      ++i;
    } else if (take_incoming) {
      copy(incoming, j, incoming.scores_[j]);
      ++j;
    } else {
      const graph::PageId page = base.pages_[i];
      JXP_CHECK_EQ(base.out_degrees_[i], incoming.out_degrees_[j])
          << "conflicting out-degree reports for page " << page;
      out.pages_.push_back(page);
      out.out_degrees_.push_back(base.out_degrees_[i]);
      const double base_score = base.scores_[i];
      const double incoming_score = incoming.scores_[j];
      out.scores_.push_back(authoritative ? incoming_score
                                          : Combine(mode, base_score, incoming_score));
      const auto a = base.targets(i);
      const auto b = incoming.targets(j);
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(out.targets_));
      out.target_offsets_.push_back(static_cast<uint32_t>(out.targets_.size()));
      ++i;
      ++j;
    }
  }

  i = 0;
  j = 0;
  const auto& base_pages = base.dangling_pages_;
  const auto& incoming_pages = incoming.dangling_pages_;
  out.dangling_pages_.reserve(base_pages.size() + incoming_pages.size());
  out.dangling_scores_.reserve(out.dangling_pages_.capacity());
  while (i < base_pages.size() || j < incoming_pages.size()) {
    graph::PageId page;
    double score;
    if (j == incoming_pages.size() ||
        (i < base_pages.size() && base_pages[i] < incoming_pages[j])) {
      page = base_pages[i];
      score = base.dangling_scores_[i++];
    } else if (i == base_pages.size() || incoming_pages[j] < base_pages[i]) {
      page = incoming_pages[j];
      score = incoming.dangling_scores_[j++];
    } else {
      page = base_pages[i];
      score = authoritative ? incoming.dangling_scores_[j]
                            : Combine(mode, base.dangling_scores_[i],
                                      incoming.dangling_scores_[j]);
      ++i;
      ++j;
    }
    out.dangling_pages_.push_back(page);
    out.dangling_scores_.push_back(score);
  }
  return out;
}

void WorldNode::Merge(const WorldNode& incoming, CombineMode mode, bool authoritative) {
  if (incoming.pages_.empty() && incoming.dangling_pages_.empty()) return;
  *this = Union(*this, incoming, mode, authoritative);
}

void WorldNode::Observe(graph::PageId page, uint32_t out_degree, double score,
                        std::span<const graph::PageId> targets, CombineMode mode,
                        bool authoritative) {
  std::vector<graph::PageId> sorted(targets.begin(), targets.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (pages_.empty() || page > pages_.back()) {
    AppendEntry(page, out_degree, score, sorted);
    return;
  }
  WorldNode one;
  one.AppendEntry(page, out_degree, score, sorted);
  Merge(one, mode, authoritative);
}

void WorldNode::ObserveDangling(graph::PageId page, double score, CombineMode mode,
                                bool authoritative) {
  if (dangling_pages_.empty() || page > dangling_pages_.back()) {
    AppendDangling(page, score);
    return;
  }
  WorldNode one;
  one.AppendDangling(page, score);
  Merge(one, mode, authoritative);
}

void WorldNode::ScaleScores(double factor) {
  JXP_CHECK_GE(factor, 0.0);
  for (double& score : scores_) score *= factor;
  for (double& score : dangling_scores_) score *= factor;
}

std::optional<ExternalPageInfo> WorldNode::Find(graph::PageId page) const {
  const auto it = std::lower_bound(pages_.begin(), pages_.end(), page);
  if (it == pages_.end() || *it != page) return std::nullopt;
  return entry(static_cast<size_t>(it - pages_.begin()));
}

std::optional<double> WorldNode::FindDangling(graph::PageId page) const {
  const auto it = std::lower_bound(dangling_pages_.begin(), dangling_pages_.end(), page);
  if (it == dangling_pages_.end() || *it != page) return std::nullopt;
  return dangling_scores_[static_cast<size_t>(it - dangling_pages_.begin())];
}

double WorldNode::TotalDanglingScore() const {
  double total = 0;
  for (double score : dangling_scores_) total += score;
  return total;
}

double WorldNode::WireBytes() const {
  return static_cast<double>(pages_.size()) * (8 + 4 + 8) +
         static_cast<double>(targets_.size()) * 8 +
         static_cast<double>(dangling_pages_.size()) * (8 + 8);
}

}  // namespace core
}  // namespace jxp
