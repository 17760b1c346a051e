#include "core/evaluation.h"

#include <utility>

#include "metrics/error.h"

namespace jxp {
namespace core {

std::unordered_map<graph::PageId, double> BuildGlobalJxpScores(
    const std::vector<JxpPeer>& peers, const p2p::Network* network) {
  const auto alive = [network](const JxpPeer& peer) {
    return network == nullptr || network->IsAlive(peer.id());
  };
  size_t total_pages = 0;
  for (const JxpPeer& peer : peers) {
    if (alive(peer)) total_pages += peer.fragment().NumLocalPages();
  }
  // One (sum, count) record per page; each page's sum still adds its peers'
  // scores in peer order.
  std::unordered_map<graph::PageId, std::pair<double, uint32_t>> totals;
  totals.reserve(total_pages);
  for (const JxpPeer& peer : peers) {
    if (!alive(peer)) continue;
    const graph::Subgraph& fragment = peer.fragment();
    const std::vector<double>& scores = peer.local_scores();
    for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
      auto& [sum, count] = totals[fragment.GlobalId(i)];
      sum += scores[i];
      ++count;
    }
  }
  std::unordered_map<graph::PageId, double> average;
  average.reserve(totals.size());
  for (const auto& [page, total] : totals) {
    average.emplace(page, total.first / static_cast<double>(total.second));
  }
  return average;
}

AccuracyPoint EvaluateAccuracy(
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    std::span<const metrics::ScoredItem> global_top_k) {
  AccuracyPoint point;
  const std::vector<metrics::ScoredItem> jxp_top_k =
      metrics::TopK(jxp_scores, global_top_k.size());
  point.footrule = metrics::SpearmanFootrule(jxp_top_k, global_top_k);
  point.linear_error = metrics::LinearScoreError(global_top_k, jxp_scores);
  return point;
}

}  // namespace core
}  // namespace jxp
