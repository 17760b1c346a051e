// The in-process meeting workloads, `converge` and `recrawl`.
//
// Untraced: each repetition builds a JxpSimulation from the generated inputs
// (timed as set-up), then runs RunMeetingsParallel in fixed chunks until the
// top-1000 footrule against centralized PageRank reaches the target. Only
// the meeting calls (and, on `recrawl`, the ReplaceFragment calls) count as
// time to target; the accuracy probes between chunks are timed separately.
//
// Traced: one untraced repetition records the meeting log, then fresh peers
// owned by the benchmark replay it through the public byte-level meeting
// API (EncodeMeetingBytes, DecodeMeetingMessage, ApplyMeetingBytes) with a
// span around every call. The replay must end bit-identical to the
// simulation.

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/meeting_wire.h"
#include "core/simulation.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"
#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using jxp::core::DecodeMeetingMessage;
using jxp::core::JxpPeer;
using jxp::core::JxpSimulation;
using jxp::core::RemoteMeetingApply;
using jxp::graph::PageId;
using jxp::p2p::PeerId;

/// Ranking reads (the workload's queries) after each repetition's target.
constexpr size_t kReads = 20;
/// Share of instances dropped at each end before averaging over instances.
constexpr double kTrim = 0.125;
/// Meetings per RunMeetingsParallel call; the accuracy probe runs after each
/// one. Part of the schedule (calls cut rounds), so fixed.
constexpr size_t kChunk = 25;
/// Peers that re-crawl at each re-crawl point.
constexpr size_t kRecrawlPeers = 2;
/// A repetition that has not reached its target by then fails.
constexpr size_t kMaxMeetings = 20000;

struct Spec {
  const char* name;
  bool webcrawl = false;
  double scale = 0;
  size_t peers_per_category = 10;
  jxp::core::MergeMode merge = jxp::core::MergeMode::kFullMerge;
  /// Footrule (top-1000) the network must reach.
  double target = 0;
  /// Every `recrawl_every` meetings, kRecrawlPeers seeded peers re-crawl
  /// (0 = never).
  size_t recrawl_every = 0;
  /// Slack of the never-overestimate check (Thm 5.3). Re-crawls transfer
  /// transiently stale world-node estimates, so `recrawl` needs more.
  double safety_slack = 1e-9;
  /// Independent input instances per run.
  size_t instances = 1;
};

Spec ConvergeSpec(const Options& options) {
  Spec spec;
  spec.name = "converge";
  spec.scale = options.small() ? 0.02 : 0.12;
  spec.peers_per_category = options.small() ? 2 : 10;
  spec.merge = jxp::core::MergeMode::kFullMerge;
  spec.target = options.small() ? 0.3 : 0.22;
  spec.instances = options.small() ? 1 : 24;
  return spec;
}

Spec RecrawlSpec(const Options& options) {
  Spec spec;
  spec.name = "recrawl";
  spec.webcrawl = true;
  spec.scale = options.small() ? 0.01 : 0.05;
  // 30 peers: each re-crawl then touches a larger share of the network, and
  // a run converges in a few hundred meetings.
  spec.peers_per_category = options.small() ? 2 : 3;
  spec.merge = jxp::core::MergeMode::kLightWeight;
  spec.target = options.small() ? 0.15 : 0.1;
  spec.recrawl_every = 50;
  spec.safety_slack = 1e-6;
  spec.instances = options.small() ? 1 : 32;
  return spec;
}

size_t Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(4, hw == 0 ? 1 : hw));
}

/// The generated inputs: a collection and the peers' crawled fragments
/// (the fig04 set-up: thematic crawls, ~3x overlap, 20x spread of sizes).
struct Inputs {
  uint64_t seed = 0;
  jxp::datasets::Collection collection;
  std::vector<std::vector<PageId>> fragments;
};

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  inputs.collection = spec.webcrawl ? jxp::datasets::MakeWebCrawlLike(spec.scale, seed)
                                    : jxp::datasets::MakeAmazonLike(spec.scale, seed);
  jxp::Random rng(seed);
  jxp::crawler::PartitionOptions partition;
  partition.peers_per_category = spec.peers_per_category;
  const size_t num_peers =
      spec.peers_per_category * inputs.collection.data.num_categories;
  partition.crawler.max_pages =
      std::max<size_t>(20, inputs.collection.data.graph.NumNodes() * 3 / num_peers);
  partition.crawler.max_depth = 8;
  partition.budget_spread = 5.0;
  inputs.fragments =
      jxp::crawler::CrawlBasedPartition(inputs.collection.data, partition, rng);
  return inputs;
}

jxp::core::SimulationConfig MakeConfig(const Spec& spec, uint64_t seed, bool log) {
  jxp::core::SimulationConfig config;
  config.jxp.damping = 0.85;
  config.jxp.pr_tolerance = 1e-11;
  config.jxp.pr_max_iterations = 300;
  config.jxp.merge_mode = spec.merge;
  config.jxp.combine_mode = jxp::core::CombineMode::kAverage;
  config.jxp.wire_mode = jxp::core::MeetingWireMode::kMeasured;
  config.seed = seed;
  config.eval_top_k = 1000;
  config.num_threads = Threads();
  config.record_meeting_log = log;
  return config;
}

/// One re-crawl: `peer` drops ~10% of its pages and adds as many unseen
/// out-neighbours of the pages it keeps.
struct Recrawl {
  size_t before_meeting = 0;  // Applied after this many meetings.
  PeerId peer = 0;
  std::vector<PageId> pages;
};

std::vector<Recrawl> PlanRecrawls(const JxpSimulation& sim,
                                  const jxp::graph::Graph& graph, uint64_t seed,
                                  size_t round) {
  jxp::Random rng(seed ^ (0x5ecc4a771ull + round * 0x9e3779b97f4a7c15ull));
  std::vector<Recrawl> plan;
  std::set<PeerId> chosen;
  while (chosen.size() < std::min(kRecrawlPeers, sim.peers().size())) {
    chosen.insert(static_cast<PeerId>(rng.NextBounded(sim.peers().size())));
  }
  for (const PeerId peer : chosen) {
    const std::span<const PageId> old_pages = sim.peers()[peer].fragment().Pages();
    std::vector<PageId> kept;
    size_t dropped = 0;
    for (const PageId page : old_pages) {
      if (rng.NextDouble() < 0.1) {
        ++dropped;
      } else {
        kept.push_back(page);
      }
    }
    if (kept.empty()) kept.push_back(old_pages.front());
    const std::set<PageId> held(old_pages.begin(), old_pages.end());
    std::set<PageId> fresh;
    for (const PageId page : kept) {
      for (const PageId next : graph.OutNeighbors(page)) {
        if (held.count(next) == 0) fresh.insert(next);
      }
    }
    std::vector<PageId> candidates(fresh.begin(), fresh.end());
    rng.Shuffle(candidates);
    candidates.resize(std::min(candidates.size(), dropped));
    kept.insert(kept.end(), candidates.begin(), candidates.end());
    plan.push_back({sim.meetings_done(), peer, std::move(kept)});
  }
  return plan;
}

/// Bit-exact digest of every peer's scores.
uint64_t Fingerprint(const std::vector<JxpPeer>& peers) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
  };
  for (const JxpPeer& peer : peers) {
    mix(peer.world_score());
    for (double score : peer.local_scores()) mix(score);
  }
  return hash;
}

/// Number of pages whose JXP score exceeds the true PageRank (Thm 5.3).
size_t SafetyViolations(const JxpSimulation& sim, const std::vector<double>& truth,
                        double slack) {
  size_t violations = 0;
  for (const JxpPeer& peer : sim.peers()) {
    const jxp::graph::Subgraph& fragment = peer.fragment();
    for (jxp::graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
      if (peer.local_scores()[i] > truth[fragment.GlobalId(i)] + slack) ++violations;
    }
  }
  return violations;
}

uint64_t Counter(const jxp::obs::MetricsSnapshot& snapshot, const char* name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

/// Outcome of one untraced repetition.
struct Rep {
  double setup_s = 0;
  double meet_s = 0;      // Meeting (+ re-crawl) wall time to target.
  double meet_cpu_s = 0;  // Process CPU over the same intervals.
  double pool_s = 0;      // RunMeetingsParallel wall time only.
  double pool_cpu_s = 0;
  size_t meetings = 0;
  double bytes = 0;
  bool reached = false;
  double footrule = 0;
  std::vector<double> probe_ms;  // Accuracy probes between chunks.
  std::vector<double> read_ms;   // Ranking reads after the target.
  size_t failed_reads = 0;
  size_t failed_meetings = 0;
  uint64_t fingerprint = 0;
  std::unique_ptr<JxpSimulation> sim;
  std::vector<Recrawl> recrawls;
};

Rep RunRep(const Spec& spec, const Inputs& inputs, const Options& options, bool log) {
  Rep rep;
  const jxp::graph::Graph& graph = inputs.collection.data.graph;
  const uint64_t setup0 = WallNs();
  rep.sim = std::make_unique<JxpSimulation>(graph, inputs.fragments,
                                            MakeConfig(spec, inputs.seed, log));
  rep.setup_s = NsToS(WallNs() - setup0);
  JxpSimulation& sim = *rep.sim;

  std::vector<double> truth = sim.global_scores();
  if (options.wrong_oracle) {
    // A wrong oracle: the top page's true score is understated, so every
    // correct score of that page reads as an overestimate.
    truth[sim.global_top_k().front().first] = 0;
  }

  size_t recrawl_round = 0;
  size_t last_probe = 0;
  while (sim.meetings_done() < kMaxMeetings) {
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = WallNs();
    sim.RunMeetingsParallel(kChunk);
    const uint64_t t1 = WallNs();
    const double cpu1 = ProcessCpuSeconds();
    rep.pool_s += NsToS(t1 - t0);
    rep.pool_cpu_s += cpu1 - cpu0;
    rep.meet_s += NsToS(t1 - t0);
    rep.meet_cpu_s += cpu1 - cpu0;
    if (spec.recrawl_every > 0 && sim.meetings_done() % spec.recrawl_every == 0) {
      std::vector<Recrawl> plan = PlanRecrawls(sim, graph, inputs.seed, recrawl_round++);
      const double rcpu0 = ProcessCpuSeconds();
      const uint64_t r0 = WallNs();
      for (const Recrawl& recrawl : plan) {
        sim.ReplaceFragment(recrawl.peer, recrawl.pages);
      }
      rep.meet_s += NsToS(WallNs() - r0);
      rep.meet_cpu_s += ProcessCpuSeconds() - rcpu0;
      for (Recrawl& recrawl : plan) rep.recrawls.push_back(std::move(recrawl));
    }

    const uint64_t p0 = WallNs();
    const jxp::core::AccuracyPoint point = sim.Evaluate();
    rep.probe_ms.push_back(NsToMs(WallNs() - p0));
    if (SafetyViolations(sim, truth, spec.safety_slack) > 0) {
      rep.failed_meetings += sim.meetings_done() - last_probe;
    }
    last_probe = sim.meetings_done();
    if (point.footrule <= spec.target) {
      rep.reached = true;
      rep.footrule = point.footrule;
      break;
    }
  }
  // The workload's queries: back-to-back top-1000 ranking reads of the
  // converged network; each must reproduce the last probe exactly.
  for (size_t q = 0; q < kReads; ++q) {
    const uint64_t q0 = WallNs();
    const double footrule = sim.Evaluate().footrule;
    rep.read_ms.push_back(NsToMs(WallNs() - q0));
    if (rep.reached && footrule != rep.footrule) ++rep.failed_reads;
  }
  rep.meetings = sim.meetings_done();
  rep.bytes = sim.network().TotalTrafficBytes();
  rep.fingerprint = Fingerprint(sim.peers());
  return rep;
}

/// Runs every instance at least once and then keeps cycling through them
/// until the time budget is spent. Each metric is the trimmed mean over
/// instances of that instance's median (the instance set is fixed by the
/// seed, so a faster program only gets more repetitions, never other inputs).
void ReportUntraced(const Spec& spec, const std::vector<Inputs>& instances,
                    const Options& options, Result& result) {
  struct PerInstance {
    std::vector<double> meet, cpu, rate, read_ms;
    double read_s = 0;
    size_t meetings = 0;
    double bytes = 0;
    uint64_t fingerprint = 0;
  };
  std::vector<PerInstance> per(instances.size());
  std::vector<double> setup;
  const uint64_t start = WallNs();
  for (size_t r = 0; r < instances.size() || NsToS(WallNs() - start) < options.seconds;
       ++r) {
    const size_t i = r % instances.size();
    const Rep rep = RunRep(spec, instances[i], options, false);
    Note("%s instance %zu rep %zu: setup %.3fs, %zu meetings in %.3fs (cpu %.3fs), "
         "%.2f MB, reached=%d",
         spec.name, i, r / instances.size(), rep.setup_s, rep.meetings, rep.meet_s,
         rep.meet_cpu_s, rep.bytes * 1e-6, rep.reached ? 1 : 0);
    result.attempted += rep.meetings + rep.read_ms.size();
    result.failed += rep.failed_meetings + rep.failed_reads;
    if (!rep.reached) result.Fail("target not reached within the meeting cap");
    PerInstance& mine = per[i];
    if (r < instances.size()) {
      mine.fingerprint = rep.fingerprint;
      mine.meetings = rep.meetings;
      mine.bytes = rep.bytes;
    } else if (rep.fingerprint != mine.fingerprint || rep.meetings != mine.meetings ||
               rep.bytes != mine.bytes) {
      result.Fail("repetitions of one instance diverged");
      result.failed += rep.meetings;
    }
    setup.push_back(rep.setup_s);
    mine.meet.push_back(rep.meet_s);
    mine.cpu.push_back(rep.meet_cpu_s);
    mine.rate.push_back(static_cast<double>(rep.meetings) / rep.meet_s);
    for (double ms : rep.read_ms) {
      mine.read_ms.push_back(ms);
      mine.read_s += ms * 1e-3;
    }
  }
  std::vector<double> meet, cpu, rate, mb, read_p50, read_p90, read_rate;
  for (const PerInstance& mine : per) {
    meet.push_back(Median(mine.meet));
    cpu.push_back(Median(mine.cpu));
    rate.push_back(Median(mine.rate));
    mb.push_back(mine.bytes * 1e-6);
    read_p50.push_back(Percentile(mine.read_ms, 50));
    read_p90.push_back(Percentile(mine.read_ms, 90));
    read_rate.push_back(static_cast<double>(mine.read_ms.size()) / mine.read_s);
  }
  result.Add("setup_s", Median(setup), "s");
  result.Add("time_to_target_s", TrimmedMean(meet, kTrim), "s");
  result.Add("cpu_to_target_s", TrimmedMean(cpu, kTrim), "s");
  result.Add("meetings_per_s", TrimmedMean(rate, kTrim), "1/s");
  result.Add("mb_to_target", TrimmedMean(mb, kTrim), "MB");
  result.Add("query_p50_ms", TrimmedMean(read_p50, kTrim), "ms");
  result.Add("query_p90_ms", TrimmedMean(read_p90, kTrim), "ms");
  result.Add("queries_per_s", TrimmedMean(read_rate, kTrim), "1/s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------------
// Traced replay.

/// Span slots of one replayed meeting.
enum Slot { kMeeting, kEncodeA, kEncodeB, kDecodeB, kApplyB, kDecodeA, kApplyA, kSlots };
const char* const kSlotNames[kSlots] = {
    "core.meeting", "wire.encode", "wire.encode", "wire.decode",
    "core.apply", "wire.decode", "core.apply"};

struct Replayed {
  /// kSlots spans per meeting, then one per re-crawl.
  std::vector<Span> spans;
  /// Encoded message sizes, and each receiver's world-node size after apply.
  std::vector<double> bytes, world_entries;
  std::vector<double> round_imbalance;
  double wall_s = 0;
  /// Meetings in which a side did not apply the whole message.
  size_t failed = 0;
};

/// Replays `log` (with the re-crawls at their positions) on `peers` in
/// batches of consecutive pairwise-disjoint meetings, each batch on the pool.
Replayed Replay(std::vector<JxpPeer>& peers, const jxp::graph::Graph& graph,
                const std::vector<std::pair<PeerId, PeerId>>& log,
                const std::vector<Recrawl>& recrawls, size_t threads) {
  Replayed out;
  const size_t n = log.size();
  out.spans.resize(n * kSlots);
  out.bytes.assign(2 * n, 0);
  out.world_entries.assign(2 * n, 0);
  std::vector<char> ok(n, 1);
  jxp::ThreadPool pool(threads);

  const auto meet = [&](size_t m) {
    Span* spans = &out.spans[m * kSlots];
    for (int s = 0; s < kSlots; ++s) {
      spans[s].name = kSlotNames[s];
      spans[s].id = static_cast<int64_t>(m * kSlots + s);
      spans[s].parent = s == kMeeting ? -1 : static_cast<int64_t>(m * kSlots);
      spans[s].op = static_cast<int64_t>(m);
    }
    JxpPeer& a = peers[log[m].first];
    JxpPeer& b = peers[log[m].second];
    Timed(spans[kMeeting], [&] {
      // A meeting is a simultaneous exchange: both sides encode first.
      const std::vector<uint8_t> to_b =
          Timed(spans[kEncodeA], [&] { return a.EncodeMeetingBytes(); });
      const std::vector<uint8_t> to_a =
          Timed(spans[kEncodeB], [&] { return b.EncodeMeetingBytes(); });
      // Each receiver: the decode alone (its span), then the whole apply.
      Timed(spans[kDecodeB], [&] { return DecodeMeetingMessage(to_b).bytes_consumed; });
      const RemoteMeetingApply at_b =
          Timed(spans[kApplyB], [&] { return b.ApplyMeetingBytes(to_b); });
      Timed(spans[kDecodeA], [&] { return DecodeMeetingMessage(to_a).bytes_consumed; });
      const RemoteMeetingApply at_a =
          Timed(spans[kApplyA], [&] { return a.ApplyMeetingBytes(to_a); });
      ok[m] = at_a.applied && at_b.applied && !at_a.salvaged && !at_b.salvaged;
      out.bytes[2 * m] = static_cast<double>(to_b.size());
      out.bytes[2 * m + 1] = static_cast<double>(to_a.size());
    });
    out.world_entries[2 * m] = static_cast<double>(b.world_node().NumEntries());
    out.world_entries[2 * m + 1] = static_cast<double>(a.world_node().NumEntries());
  };

  size_t next_recrawl = 0;
  std::vector<char> busy(peers.size(), 0);
  const uint64_t start = WallNs();
  size_t m = 0;
  while (m < n || next_recrawl < recrawls.size()) {
    while (next_recrawl < recrawls.size() && recrawls[next_recrawl].before_meeting == m) {
      const Recrawl& recrawl = recrawls[next_recrawl++];
      Span span;
      span.name = "core.recrawl";
      span.id = static_cast<int64_t>(out.spans.size());
      Timed(span, [&] {
        peers[recrawl.peer].ReplaceFragment(
            jxp::graph::Subgraph::Induce(graph, recrawl.pages));
      });
      out.spans.push_back(span);
    }
    if (m == n) break;
    // The batch: consecutive meetings on disjoint peers, up to the next
    // re-crawl point.
    const size_t limit =
        next_recrawl < recrawls.size() ? recrawls[next_recrawl].before_meeting : n;
    size_t end = m;
    while (end < limit && !busy[log[end].first] && !busy[log[end].second]) {
      busy[log[end].first] = busy[log[end].second] = 1;
      ++end;
    }
    pool.ParallelFor(m, end, 1, meet);
    double slowest = 0, sum = 0;
    for (size_t i = m; i < end; ++i) {
      busy[log[i].first] = busy[log[i].second] = 0;
      const double d = static_cast<double>(out.spans[i * kSlots].duration_ns());
      slowest = std::max(slowest, d);
      sum += d;
    }
    if (end - m >= 2) {
      out.round_imbalance.push_back(slowest / (sum / static_cast<double>(end - m)));
    }
    m = end;
  }
  out.wall_s = NsToS(WallNs() - start);
  for (char good : ok) out.failed += good ? 0 : 1;
  return out;
}

void ReportTraced(const Spec& spec, const Inputs& inputs, const Options& options,
                  Result& result) {
  // The untraced reference: one repetition with the meeting log on.
  Rep rep = RunRep(spec, inputs, options, true);
  const JxpSimulation& sim = *rep.sim;
  result.attempted += rep.meetings + rep.read_ms.size();
  result.failed += rep.failed_meetings + rep.failed_reads;
  if (!rep.reached) result.Fail("target not reached within the meeting cap");

  // Fresh peers, built exactly as the simulation built its own.
  const jxp::graph::Graph& graph = inputs.collection.data.graph;
  const jxp::core::SimulationConfig config = MakeConfig(spec, inputs.seed, false);
  std::vector<JxpPeer> peers;
  peers.reserve(inputs.fragments.size());
  for (size_t p = 0; p < inputs.fragments.size(); ++p) {
    peers.emplace_back(static_cast<PeerId>(p),
                       jxp::graph::Subgraph::Induce(graph, inputs.fragments[p]),
                       graph.NumNodes(), config.jxp);
  }

  const jxp::obs::MetricsSnapshot before = jxp::obs::MetricsRegistry::Global().Snapshot();
  const uint64_t origin = WallNs();
  Replayed replay = Replay(peers, graph, sim.meeting_log(), rep.recrawls, Threads());
  const jxp::obs::MetricsSnapshot after = jxp::obs::MetricsRegistry::Global().Snapshot();
  result.failed += replay.failed;

  // Bit-identity against the simulation.
  bool identical = peers.size() == sim.peers().size();
  for (size_t p = 0; identical && p < peers.size(); ++p) {
    const JxpPeer& want = sim.peers()[p];
    identical = peers[p].world_score() == want.world_score() &&
                peers[p].local_scores() == want.local_scores() &&
                std::ranges::equal(peers[p].fragment().Pages(), want.fragment().Pages());
  }
  if (!identical) {
    result.Fail("traced replay diverged from the simulation");
    result.failed += rep.meetings;
  }
  Note("%s traced replay: %zu meetings, %zu re-crawls, bit-identical=%d, %.3fs vs %.3fs "
       "untraced",
       spec.name, sim.meeting_log().size(), rep.recrawls.size(), identical ? 1 : 0,
       replay.wall_s, rep.meet_s);

  std::vector<double> encode_us, decode_us, apply_self_us, meeting_us, recrawl_us;
  double encode_sum = 0, decode_sum = 0, apply_self_sum = 0, meeting_sum = 0;
  double apply_sum = 0;
  for (size_t m = 0; m < sim.meeting_log().size(); ++m) {
    const Span* s = &replay.spans[m * kSlots];
    for (int e : {kEncodeA, kEncodeB}) {
      encode_us.push_back(NsToUs(s[e].duration_ns()));
      encode_sum += encode_us.back();
    }
    for (auto [d, a] : {std::pair{kDecodeB, kApplyB}, std::pair{kDecodeA, kApplyA}}) {
      const double dec = NsToUs(s[d].duration_ns());
      const double app = NsToUs(s[a].duration_ns());
      decode_us.push_back(dec);
      apply_self_us.push_back(std::max(0.0, app - dec));
      decode_sum += dec;
      apply_self_sum += apply_self_us.back();
      apply_sum += app;
    }
    meeting_us.push_back(NsToUs(s[kMeeting].duration_ns()));
    meeting_sum += meeting_us.back();
  }
  for (size_t i = sim.meeting_log().size() * kSlots; i < replay.spans.size(); ++i) {
    recrawl_us.push_back(NsToUs(replay.spans[i].duration_ns()));
  }
  // The traced meeting decodes each message twice (once alone, once inside
  // ApplyMeetingBytes); shares are of the meeting without the extra decode.
  const double untraced_equivalent = meeting_sum - decode_sum;
  Note("%s traced: encode+decode+apply spans cover %.1f%% of meeting wall time",
       spec.name, 100.0 * (encode_sum + decode_sum + apply_sum) / meeting_sum);

  const uint64_t hits = Counter(after, "jxp.extended_cache.hits") -
                        Counter(before, "jxp.extended_cache.hits");
  const uint64_t misses = Counter(after, "jxp.extended_cache.misses") -
                          Counter(before, "jxp.extended_cache.misses");
  const uint64_t runs = Counter(after, "markov.power_iteration.runs") -
                        Counter(before, "markov.power_iteration.runs");
  const uint64_t iterations = Counter(after, "markov.power_iteration.iterations_total") -
                              Counter(before, "markov.power_iteration.iterations_total");

  result.Add("wire.encode_us.p50", Percentile(encode_us, 50), "us");
  result.Add("wire.encode_us.p99", Percentile(encode_us, 99), "us");
  result.Add("wire.decode_us.p50", Percentile(decode_us, 50), "us");
  result.Add("wire.decode_us.p99", Percentile(decode_us, 99), "us");
  result.Add("wire.bytes_per_message", Mean(replay.bytes), "bytes");
  result.Add("core.apply_self_us.p50", Percentile(apply_self_us, 50), "us");
  result.Add("core.apply_self_us.p99", Percentile(apply_self_us, 99), "us");
  result.Add("core.meeting_us.p50", Percentile(meeting_us, 50), "us");
  result.Add("core.meeting_us.p99", Percentile(meeting_us, 99), "us");
  const double codec_sum = encode_sum + decode_sum;
  result.Add("core.apply_share", Ratio(apply_self_sum, untraced_equivalent), "ratio");
  result.Add("core.codec_share", Ratio(codec_sum, untraced_equivalent), "ratio");
  result.Add("core.world_entries_mean", Mean(replay.world_entries), "count");
  result.Add("core.recrawl_us.p50", Percentile(recrawl_us, 50), "us");
  const double lookups = static_cast<double>(hits + misses);
  result.Add("core.extended_cache_hit_ratio", Ratio(static_cast<double>(hits), lookups),
             "ratio");
  result.Add("core.meetings_to_target", static_cast<double>(rep.meetings), "count");
  result.Add("markov.iterations_per_solve",
             Ratio(static_cast<double>(iterations), static_cast<double>(runs)), "count");
  result.Add("pool.cpu_util",
             rep.pool_cpu_s / (rep.pool_s * static_cast<double>(Threads())), "ratio");
  result.Add("core.round_imbalance", Mean(replay.round_imbalance), "ratio");
  result.Add("eval.us.p50", Percentile(rep.probe_ms, 50) * 1e3, "us");
  result.Add("trace.overhead", replay.wall_s / rep.meet_s, "ratio");

  if (!options.trace_out.empty() &&
      !WriteSpans(options.trace_out, replay.spans, origin)) {
    result.Fail("cannot write " + options.trace_out);
  }
}

void RunMeetingWorkload(const Spec& spec, const Options& options, Result& result) {
  // Independent instances (collection, crawl and schedule all differ), so
  // one run averages over instance difficulty instead of sampling it once.
  std::vector<Inputs> instances;
  for (size_t i = 0; i < (options.trace ? 1 : spec.instances); ++i) {
    instances.push_back(MakeInputs(spec, options.seed * 1000003 + i));
    const jxp::graph::Graph& graph = instances.back().collection.data.graph;
    Note("%s instance %zu: %zu pages, %zu links, %zu peers, %zu threads", spec.name, i,
         graph.NumNodes(), graph.NumEdges(), instances.back().fragments.size(),
         Threads());
  }
  if (options.trace) {
    ReportTraced(spec, instances.front(), options, result);
  } else {
    ReportUntraced(spec, instances, options, result);
  }
}

}  // namespace

void RunConverge(const Options& options, Result& result) {
  RunMeetingWorkload(ConvergeSpec(options), options, result);
}

void RunRecrawl(const Options& options, Result& result) {
  RunMeetingWorkload(RecrawlSpec(options), options, result);
}

}  // namespace perfbench
