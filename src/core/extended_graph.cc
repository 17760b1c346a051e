#include "core/extended_graph.h"

#include <algorithm>
#include <bit>
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

/// One world entry keyed for the world-row term order: out-degree
/// descending, then score ascending, as a 96-bit unsigned key whose high
/// word is ~out_degree and whose low word is the score's IEEE-754 bits.
/// Scores are finite and non-negative, so their bit order is their numeric
/// order; -0.0 is keyed as +0.0, since the two compare equal.
struct EntryKey {
  uint64_t score_bits;
  uint32_t inv_degree;
  uint32_t entry;
};

/// Byte digits of the key, least significant first: 8 of the score, then
/// 4 of the degree.
constexpr int kScoreDigits = 8;
constexpr int kKeyDigits = kScoreDigits + 4;

uint32_t KeyDigit(const EntryKey& key, int d) {
  return d < kScoreDigits
             ? static_cast<uint32_t>(key.score_bits >> (8 * d)) & 0xff
             : (key.inv_degree >> (8 * (d - kScoreDigits))) & 0xff;
}

/// Sorts `keys` ascending by (inv_degree, score_bits) with an LSD radix
/// sort over byte digits. All digit histograms come from one pass, and a
/// digit every key shares is skipped (typically the degree's high bytes).
/// Keys that tie are equal (degree, score) pairs, whose world-row terms are
/// identical, so the order among them is immaterial.
void RadixSortEntries(std::vector<EntryKey>& keys) {
  const size_t n = keys.size();
  if (n < 2) return;
  uint32_t counts[kKeyDigits][256] = {};
  for (const EntryKey& key : keys) {
    for (int d = 0; d < kKeyDigits; ++d) ++counts[d][KeyDigit(key, d)];
  }
  std::vector<EntryKey> scratch(n);
  for (int d = 0; d < kKeyDigits; ++d) {
    uint32_t* count = counts[d];
    if (count[KeyDigit(keys[0], d)] == n) continue;  // Every key shares digit d.
    uint32_t offset = 0;
    for (int v = 0; v < 256; ++v) offset += std::exchange(count[v], offset);
    for (const EntryKey& key : keys) scratch[count[KeyDigit(key, d)]++] = key;
    keys.swap(scratch);
  }
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

void ExtendedSystemCache::RebuildWorldRow(double denominator) {
  JXP_CHECK_GT(denominator, 0.0);
  const uint32_t world_state = static_cast<uint32_t>(num_local_);

  // World row (Eqs. 8-9), regenerated from the raw terms with the exact
  // arithmetic of a from-scratch build: weight per target
  // (1/out(r)) * (alpha(r)/alpha_w), generation-order mass accumulation,
  // clamp-scaling applied per entry before the sort/merge.
  world_row_.clear();
  double world_out_mass = 0;
  for (const WorldTerm& term : terms_) {
    const double assumed_score = weighting_ == WorldLinkWeighting::kScoreProportional
                                     ? term.score
                                     : denominator * uniform_share_;
    const double per_target = term.inv_out * (assumed_score / denominator);
    world_row_.push_back({term.target, per_target});
    world_out_mass += per_target;
  }
  // Known external dangling pages link (by the uniform-redistribution
  // convention) to every page, so their aggregated score mass flows 1/N to
  // each local page.
  if (dangling_mass_ > 0 && num_local_ > 0) {
    const double per_page =
        (dangling_mass_ / denominator) / static_cast<double>(global_size_);
    for (uint32_t i = 0; i < num_local_; ++i) world_row_.push_back({i, per_page});
    world_out_mass += per_page * static_cast<double>(num_local_);
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
  }
  for (markov::MatrixEntry& e : world_row_) e.weight = e.weight * scale;
  const double self_loop = 1.0 - std::min(world_out_mass * scale, 1.0);
  if (self_loop > 0) world_row_.push_back({world_state, self_loop});
  markov::SortAndMergeRow(world_row_);
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
  JXP_CHECK_GE(global_size, n) << "global size estimate below local page count";
  JXP_CHECK_GT(world_score, 0.0);

  if (!local_rows_valid_ || num_local_ != n) {
    GetCacheMetrics().misses.Increment();
    RebuildLocalRows(fragment);
  } else {
    GetCacheMetrics().hits.Increment();
  }

  // Snapshot the world node's raw link terms, projected onto the fragment,
  // in canonical (target, inv_out, score) order. The order fixes the world
  // row's float accumulation, so it must be a function of the world node's
  // content alone. Entries are radix-sorted into (inv_out, score) order —
  // ascending 1/out(r) is exactly descending out(r) for 32-bit degrees —
  // and a stable counting pass over the local target indices groups their
  // terms by target: a sort of the entries replaces a sort of all their
  // terms, and no comparison sort runs at all.
  uniform_share_ =
      world.NumEntries() > 0 ? 1.0 / static_cast<double>(world.NumEntries()) : 0.0;
  std::vector<EntryKey> order(world.NumEntries());
  for (size_t e = 0; e < order.size(); ++e) {
    const double score = world.scores()[e];
    order[e] = {score == 0.0 ? 0 : std::bit_cast<uint64_t>(score),
                ~world.out_degrees()[e], static_cast<uint32_t>(e)};
  }
  RadixSortEntries(order);
  // Counting pass: project every target once, counting terms per target.
  std::vector<graph::Subgraph::LocalIndex> local(world.NumLinks());
  std::vector<size_t> next(n + 1, 0);
  size_t k = 0;
  for (const EntryKey& key : order) {
    for (graph::PageId target : world.targets(key.entry)) {
      local[k] = fragment.LocalIndexOf(target);
      if (local[k] != graph::Subgraph::kNotLocal) ++next[local[k] + 1];
      ++k;
    }
  }
  for (size_t t = 0; t < n; ++t) next[t + 1] += next[t];
  // Placement pass, stable: within a target, terms keep the entry order.
  // The score comes from the world node, so a -0.0 keeps its sign bit.
  terms_.resize(next[n]);
  k = 0;
  for (const EntryKey& key : order) {
    const double inv_out = 1.0 / static_cast<double>(~key.inv_degree);
    const double score = world.scores()[key.entry];
    for (size_t j = 0; j < world.targets(key.entry).size(); ++j, ++k) {
      const graph::Subgraph::LocalIndex t = local[k];
      if (t == graph::Subgraph::kNotLocal) continue;  // Target projected away.
      terms_[next[t]++] = {t, inv_out, score};
    }
  }
  dangling_mass_ = world.TotalDanglingScore();
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
  if (timer.has_value()) GetCacheMetrics().prepare_ms.Observe(timer->ElapsedMillis());
  return system_;
}

const ExtendedGraphSystem& ExtendedSystemCache::Rescale(double world_score) {
  JXP_CHECK(prepared_ && local_rows_valid_) << "Rescale before Prepare";
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
