#include "core/extended_graph.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace jxp {
namespace core {

namespace {

/// Cache effectiveness counters (DESIGN.md §6d): a hit reuses the cached
/// local rows and only regenerates the world row; a miss rebuilds the local
/// rows; a rescale is the guard-loop world-row regeneration. `prepare_ms`
/// is the thread CPU of each Prepare (timing, recorded only while telemetry
/// is enabled).
struct CacheMetrics {
  obs::Counter hits = obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.hits");
  obs::Counter misses =
      obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.misses");
  obs::Counter rescales =
      obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.rescales");
  obs::Histogram prepare_ms = obs::MetricsRegistry::Global().GetHistogram(
      "jxp.extended_cache.prepare_ms", {0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100});
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics metrics;
  return metrics;
}

}  // namespace

void ExtendedSystemCache::RebuildLocalRows(const graph::Subgraph& fragment) {
  const size_t n = fragment.NumLocalPages();
  const uint32_t world_state = static_cast<uint32_t>(n);

  // Local rows (Eqs. 6-7), written straight into the CSR: a page's local
  // neighbours are ascending and unique, and the world column n comes last,
  // so every row is already in the column order the builder would sort it
  // into. The world row (state n) stays empty here; every Prepare/Rescale
  // splices it in via ReplaceLastRow.
  size_t num_entries = fragment.NumLocalEdges();
  for (graph::Subgraph::LocalIndex i = 0; i < n; ++i) {
    if (fragment.NumExternalSuccessors(i) > 0) ++num_entries;
  }
  std::vector<uint64_t> offsets(n + 2, 0);
  std::vector<markov::MatrixEntry> entries;
  entries.reserve(num_entries);
  for (graph::Subgraph::LocalIndex i = 0; i < n; ++i) {
    const size_t degree = fragment.GlobalOutDegree(i);
    // A dangling page keeps an empty row: its mass goes by the dangling vector.
    if (degree > 0) {
      const double w = 1.0 / static_cast<double>(degree);
      for (graph::Subgraph::LocalIndex j : fragment.LocalOutNeighbors(i)) {
        entries.push_back({j, w});
      }
      const size_t external = fragment.NumExternalSuccessors(i);
      if (external > 0) {
        entries.push_back({world_state, w * static_cast<double>(external)});
      }
    }
    offsets[i + 1] = entries.size();
  }
  offsets[n + 1] = entries.size();
  system_.matrix = markov::SparseMatrix::FromCsr(std::move(offsets), std::move(entries));
  num_local_ = n;
  local_rows_valid_ = true;
}

void ExtendedSystemCache::RebuildMergedLocalRows(const graph::SubgraphUnion& merged) {
  const size_t m = merged.NumPages();
  const uint32_t world_state = static_cast<uint32_t>(m);

  // The rows RebuildLocalRows would write for Subgraph::Merge(a, b): each
  // successor is looked up in the two fragments' directories instead of a
  // merged one, and merged indices follow page order, so the local columns
  // come out ascending with the world column last.
  std::vector<uint64_t> offsets;
  offsets.reserve(m + 2);
  offsets.push_back(0);
  std::vector<markov::MatrixEntry> entries;
  merged.ForEachPage([&](const graph::Subgraph& from, graph::Subgraph::LocalIndex i) {
    const auto successors = from.Successors(i);
    // A dangling page keeps an empty row: its mass goes by the dangling vector.
    if (!successors.empty()) {
      const double w = 1.0 / static_cast<double>(successors.size());
      size_t external = 0;
      for (graph::PageId s : successors) {
        const graph::Subgraph::LocalIndex j = merged.IndexOf(s);
        if (j == graph::Subgraph::kNotLocal) {
          ++external;
        } else {
          entries.push_back({j, w});
        }
      }
      if (external > 0) {
        entries.push_back({world_state, w * static_cast<double>(external)});
      }
    }
    offsets.push_back(entries.size());
  });
  offsets.push_back(entries.size());
  system_.matrix = markov::SparseMatrix::FromCsr(std::move(offsets), std::move(entries));
  num_local_ = m;
  // The rows describe no fragment a later Prepare could reuse.
  local_rows_valid_ = false;
}

void ExtendedSystemCache::RebuildWorldRow(double denominator) {
  JXP_CHECK_GT(denominator, 0.0);
  const uint32_t world_state = static_cast<uint32_t>(num_local_);

  // World row (Eqs. 8-9), one scan in column order: target t gets its
  // in-mass over alpha_w (the in-mass alone under kUniform, whose assumed
  // scores already are shares of alpha_w). Known external dangling pages
  // link (by the uniform-redistribution convention) to every page, so their
  // aggregated score mass adds 1/N of itself to every local column.
  const bool dangling = world_in_.dangling > 0 && num_local_ > 0;
  const double per_page =
      dangling ? (world_in_.dangling / denominator) / static_cast<double>(global_size_)
               : 0.0;
  const bool score_proportional = weighting_ == WorldLinkWeighting::kScoreProportional;
  world_row_.clear();
  double world_out_mass = 0;
  for (uint32_t t = 0; t < num_local_; ++t) {
    if (!world_in_.linked[t] && !dangling) continue;
    const double in = score_proportional ? world_in_.in[t] / denominator : world_in_.in[t];
    const double weight = in + per_page;
    world_row_.push_back({t, weight});
    world_out_mass += weight;
  }
  // Transiently, the stored external scores can exceed the world score
  // (e.g. right after take-max combining but before the local PR re-run);
  // scale the row back into stochasticity instead of producing a negative
  // self-loop.
  double scale = 1.0;
  system_.world_row_clamped = false;
  if (world_out_mass > 1.0) {
    scale = 1.0 / world_out_mass;
    system_.world_row_clamped = true;
    for (markov::MatrixEntry& e : world_row_) e.weight = e.weight * scale;
  }
  const double self_loop = 1.0 - std::min(world_out_mass * scale, 1.0);
  if (self_loop > 0) world_row_.push_back({world_state, self_loop});
  system_.matrix.ReplaceLastRow(world_row_);
}

const ExtendedGraphSystem& ExtendedSystemCache::Prepare(const graph::Subgraph& fragment,
                                                        const WorldNode& world,
                                                        double world_score,
                                                        size_t global_size,
                                                        WorldLinkWeighting weighting) {
  std::optional<ThreadCpuTimer> timer;
  if (obs::Enabled()) timer.emplace();
  const size_t n = fragment.NumLocalPages();
  if (!local_rows_valid_ || num_local_ != n) {
    GetCacheMetrics().misses.Increment();
    RebuildLocalRows(fragment);
  } else {
    GetCacheMetrics().hits.Increment();
  }

  // One pass over the world node in page order: every entry adds
  // (1/out(r)) * alpha(r) to the in-mass of each of its local targets.
  const double uniform_share =
      world.NumEntries() > 0 ? 1.0 / static_cast<double>(world.NumEntries()) : 0.0;
  world_in_.Reset(n);
  for (size_t e = 0; e < world.NumEntries(); ++e) {
    const double alpha =
        weighting == WorldLinkWeighting::kScoreProportional ? world.scores()[e] : uniform_share;
    const double term = (1.0 / static_cast<double>(world.out_degrees()[e])) * alpha;
    for (graph::PageId target : world.targets(e)) {
      const graph::Subgraph::LocalIndex t = fragment.LocalIndexOf(target);
      if (t != graph::Subgraph::kNotLocal) world_in_.Add(t, term);  // Else projected away.
    }
  }
  world_in_.dangling = world.TotalDanglingScore();
  FinishPrepare(world_score, global_size, weighting);
  if (timer.has_value()) GetCacheMetrics().prepare_ms.Observe(timer->ElapsedMillis());
  return system_;
}

const ExtendedGraphSystem& ExtendedSystemCache::PrepareMerged(
    const graph::SubgraphUnion& merged, WorldInMass world_in, double world_score,
    size_t global_size, WorldLinkWeighting weighting) {
  std::optional<ThreadCpuTimer> timer;
  if (obs::Enabled()) timer.emplace();
  JXP_CHECK_EQ(world_in.in.size(), merged.NumPages());
  JXP_CHECK_EQ(world_in.linked.size(), merged.NumPages());
  GetCacheMetrics().misses.Increment();
  RebuildMergedLocalRows(merged);
  world_in_ = std::move(world_in);
  FinishPrepare(world_score, global_size, weighting);
  if (timer.has_value()) GetCacheMetrics().prepare_ms.Observe(timer->ElapsedMillis());
  return system_;
}

void ExtendedSystemCache::FinishPrepare(double world_score, size_t global_size,
                                        WorldLinkWeighting weighting) {
  const size_t n = num_local_;
  JXP_CHECK_GE(global_size, n) << "global size estimate below local page count";
  JXP_CHECK_GT(world_score, 0.0);
  global_size_ = global_size;
  weighting_ = weighting;

  // Teleport / dangling vectors (Eq. 10).
  const size_t num_states = n + 1;
  const uint32_t world_state = static_cast<uint32_t>(n);
  const double uniform = 1.0 / static_cast<double>(global_size);
  system_.teleport.assign(num_states, uniform);
  system_.teleport[world_state] =
      static_cast<double>(global_size - n) / static_cast<double>(global_size);
  if (global_size == n) system_.teleport[world_state] = 0.0;
  system_.dangling = system_.teleport;

  RebuildWorldRow(world_score);
  prepared_ = true;
}

const ExtendedGraphSystem& ExtendedSystemCache::Rescale(double world_score) {
  JXP_CHECK(prepared_) << "Rescale before Prepare";
  GetCacheMetrics().rescales.Increment();
  RebuildWorldRow(world_score);
  return system_;
}

ExtendedGraphSystem BuildExtendedSystem(const graph::Subgraph& fragment,
                                        const WorldNode& world, double world_score,
                                        size_t global_size,
                                        WorldLinkWeighting weighting) {
  ExtendedSystemCache cache;
  cache.Prepare(fragment, world, world_score, global_size, weighting);
  return std::move(cache).TakeSystem();
}

}  // namespace core
}  // namespace jxp
