// The networked workload, `cluster`: four forked PeerDaemons on loopback,
// one JXP peer each. The benchmark replays a seeded schedule in rounds of two
// disjoint meetings, both in flight at once (ControlClient::Meet on two
// threads), until the top-1000 footrule reaches the target. Every few rounds
// the benchmark reads all four score lists (ControlClient::GetScores) and ranks
// them against centralized PageRank; these reads are the workload's queries
// and are excluded from the time to target.
//
// The target is the footrule an in-process oracle reaches after
// Spec::meetings meetings of the same schedule (as bench/net_cluster's
// self-scheduled arm sets its target), and the cluster must reach it at that
// same meeting. Four peers converge in a few dozen meetings and the footrule
// then wanders, so a fixed footrule would be reached after a seed-dependent
// handful of rounds; tying it to the oracle fixes the work and leaves the
// networked runtime's speed to measure.
//
// Correctness: every meet command must be applied in full, no score may
// exceed the true PageRank (Thm 5.3), and after each repetition every
// daemon's scores must be bit-identical to an in-process oracle that ran the
// same rounds through JxpPeer::Meet.
//
// Traced: one untraced repetition for reference, then one with a span
// around every RPC, a fifth, idle daemon probed with GetStatus while each
// round's meetings are in flight, and the daemons' network counters.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "core/evaluation.h"
#include "core/jxp_peer.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "harness.h"
#include "metrics/ranking.h"
#include "net/control_client.h"
#include "net/event_loop.h"
#include "net/peer_daemon.h"
#include "pagerank/pagerank.h"

namespace perfbench {
namespace {

using jxp::core::JxpPeer;
using jxp::graph::PageId;

constexpr size_t kPeers = 4;
/// Rounds between two score reads (each read checks the target).
constexpr size_t kProbeEvery = 4;
constexpr size_t kReps = 3;

struct Spec {
  size_t nodes = 0;
  /// Meetings after which the oracle's footrule becomes the target.
  size_t meetings = 0;
  size_t rounds() const { return meetings / 2; }
};

Spec ClusterSpec(const Options& options) {
  Spec spec;
  spec.nodes = options.small() ? 2000 : 12000;
  spec.meetings = options.small() ? 16 : 160;
  return spec;
}

jxp::core::JxpOptions PeerOptions() {
  jxp::core::JxpOptions options;
  options.wire_mode = jxp::core::MeetingWireMode::kMeasured;
  return options;
}

struct Inputs {
  jxp::graph::Graph graph;
  std::vector<std::vector<PageId>> fragments;
  std::vector<double> truth;
  std::vector<jxp::metrics::ScoredItem> top_k;
  /// Round r meets schedule[r][0] -> schedule[r][1] and [2] -> [3].
  std::vector<std::array<uint32_t, kPeers>> schedule;
};

Inputs MakeInputs(const Spec& spec, const Options& options) {
  Inputs in;
  jxp::Random rng(options.seed);
  in.graph = jxp::graph::BarabasiAlbert(spec.nodes, 3, rng);
  // Every page lands on its base peer; a fifth of them also on one other.
  in.fragments.resize(kPeers);
  for (PageId page = 0; page < spec.nodes; ++page) {
    const size_t base = page % kPeers;
    in.fragments[base].push_back(page);
    if (rng.NextDouble() < 0.2) {
      in.fragments[(base + 1 + rng.NextBounded(kPeers - 1)) % kPeers].push_back(page);
    }
  }
  jxp::pagerank::PageRankOptions pr;
  pr.damping = PeerOptions().damping;
  pr.tolerance = 1e-12;
  pr.max_iterations = 500;
  in.truth = jxp::pagerank::ComputePageRank(in.graph, pr).scores;
  if (options.wrong_oracle) {
    // A wrong oracle: every correct score reads as an overestimate.
    for (double& score : in.truth) score *= 0.5;
  }
  in.top_k = jxp::metrics::TopK(in.truth, 1000);
  for (size_t r = 0; r < spec.rounds(); ++r) {
    std::array<uint32_t, kPeers> order = {0, 1, 2, 3};
    for (size_t i = kPeers - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    in.schedule.push_back(order);
  }
  return in;
}

JxpPeer MakePeer(const Inputs& in, size_t p) {
  return JxpPeer(static_cast<jxp::p2p::PeerId>(p),
                 jxp::graph::Subgraph::Induce(in.graph, in.fragments[p % kPeers]),
                 in.graph.NumNodes(), PeerOptions());
}

// ---------------------------------------------------------------------------
// Daemons.

int g_stop_fd = -1;
void OnSigTerm(int) {
  const uint8_t byte = 1;
  (void)!::write(g_stop_fd, &byte, 1);
}

/// Child body: build the peer, serve until SIGTERM.
int DaemonMain(const Inputs& in, size_t p, int report_fd) {
  int stop[2];
  if (::pipe(stop) != 0) return 1;
  g_stop_fd = stop[1];
  struct sigaction action = {};
  action.sa_handler = OnSigTerm;
  ::sigaction(SIGTERM, &action, nullptr);
  jxp::net::PeerDaemonOptions options;
  options.shutdown_fd = stop[0];
  options.goodbye_on_shutdown = false;
  jxp::net::EventLoop loop;
  jxp::net::PeerDaemon daemon(std::make_unique<JxpPeer>(MakePeer(in, p)), options);
  if (!daemon.Start(&loop).ok()) return 1;
  const uint16_t port = daemon.bound_port();
  if (::write(report_fd, &port, sizeof(port)) != sizeof(port)) return 1;
  ::close(report_fd);
  loop.Run();
  return 0;
}

struct Daemon {
  pid_t pid = -1;
  uint16_t port = 0;
  clockid_t cpu_clock = 0;
  jxp::net::ControlClient control;
};

bool Spawn(const Inputs& in, size_t p, Daemon& d) {
  int report[2];
  if (::pipe(report) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(report[0]);
    ::_exit(DaemonMain(in, p, report[1]));
  }
  ::close(report[1]);
  d.pid = pid;
  uint16_t port = 0;
  const bool got = ::read(report[0], &port, sizeof(port)) == sizeof(port);
  ::close(report[0]);
  d.port = port;
  return got && ::clock_getcpuclockid(pid, &d.cpu_clock) == 0;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// SIGTERMs and reaps every daemon; true iff all exited with 0.
bool StopAll(std::vector<Daemon>& daemons) {
  bool clean = true;
  for (Daemon& d : daemons) {
    if (d.pid < 0) continue;
    d.control.Close();
    ::kill(d.pid, SIGTERM);
  }
  for (Daemon& d : daemons) {
    if (d.pid < 0) continue;
    int status = 0;
    clean = ::waitpid(d.pid, &status, 0) == d.pid && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0 && clean;
    d.pid = -1;
  }
  return clean;
}

// ---------------------------------------------------------------------------
// One repetition.

/// One peer's score list, as the control protocol ships it.
struct Scores {
  std::vector<jxp::net::ScoreEntry> entries;
  double world = 0;
};

/// Footrule of the network-wide table (each page averaged over the peers
/// holding it) against centralized PageRank.
double Footrule(const std::vector<Scores>& peers, const Inputs& in) {
  std::unordered_map<PageId, std::pair<double, int>> sums;
  for (const Scores& peer : peers) {
    for (const jxp::net::ScoreEntry& e : peer.entries) {
      auto& [sum, count] = sums[e.page];
      sum += e.score;
      ++count;
    }
  }
  std::unordered_map<PageId, double> table;
  for (const auto& [page, sc] : sums) table[page] = sc.first / sc.second;
  return jxp::core::EvaluateAccuracy(table, in.top_k).footrule;
}

/// Pages whose score exceeds the true PageRank (Thm 5.3).
size_t Overestimates(const std::vector<Scores>& peers, const Inputs& in) {
  size_t bad = 0;
  for (const Scores& peer : peers) {
    for (const jxp::net::ScoreEntry& e : peer.entries) {
      if (e.score > in.truth[e.page] + 1e-9) ++bad;
    }
  }
  return bad;
}

/// The oracle's run: the same rounds in process (each round's two meetings
/// on two threads; they share no peer).
struct Oracle {
  double target = 0;  // Footrule after spec.meetings meetings.
  std::vector<Scores> final_scores;
};

std::vector<Scores> Snapshot(const std::vector<JxpPeer>& peers) {
  std::vector<Scores> out(peers.size());
  for (size_t p = 0; p < peers.size(); ++p) {
    const jxp::graph::Subgraph& fragment = peers[p].fragment();
    for (jxp::graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
      out[p].entries.push_back({fragment.GlobalId(i), peers[p].local_scores()[i]});
    }
    out[p].world = peers[p].world_score();
  }
  return out;
}

Oracle RunOracle(const Spec& spec, const Inputs& in) {
  std::vector<JxpPeer> peers;
  for (size_t p = 0; p < kPeers; ++p) peers.push_back(MakePeer(in, p));
  for (size_t r = 0; r < spec.rounds(); ++r) {
    const auto& order = in.schedule[r];
    std::thread second([&] { JxpPeer::Meet(peers[order[2]], peers[order[3]]); });
    JxpPeer::Meet(peers[order[0]], peers[order[1]]);
    second.join();
  }
  Oracle oracle;
  oracle.final_scores = Snapshot(peers);
  oracle.target = Footrule(oracle.final_scores, in);
  return oracle;
}

/// Bit-exact comparison of two sets of score lists.
bool Identical(const std::vector<Scores>& got, const std::vector<Scores>& want) {
  if (got.size() != want.size()) return false;
  for (size_t p = 0; p < got.size(); ++p) {
    if (got[p].world != want[p].world ||
        got[p].entries.size() != want[p].entries.size()) {
      return false;
    }
    std::unordered_map<PageId, double> expect;
    for (const jxp::net::ScoreEntry& e : want[p].entries) expect[e.page] = e.score;
    for (const jxp::net::ScoreEntry& e : got[p].entries) {
      const auto it = expect.find(e.page);
      if (it == expect.end() || it->second != e.score) return false;
    }
  }
  return true;
}

struct Rep {
  double setup_s = 0;
  double meet_s = 0;
  double meet_cpu_s = 0;             // This process over the rounds + daemons.
  std::vector<double> daemon_cpu_s;  // Per daemon, rounds only (CPU clocks).
  size_t rounds = 0;
  size_t meetings = 0;
  size_t failed = 0;
  double bytes = 0;
  bool reached = false;
  std::vector<double> probe_ms;
  std::vector<Scores> final_scores;
  // Traced only.
  std::vector<Span> spans;
  std::vector<double> meet_rpc_ms, status_rpc_ms;
  uint64_t dials = 0, bytes_sent = 0;
};

/// Reads every daemon's scores (false on an RPC error).
bool ReadScores(std::vector<Daemon>& daemons, std::vector<Scores>& out) {
  out.assign(kPeers, {});
  for (size_t p = 0; p < kPeers; ++p) {
    jxp::net::ScoresReplyMessage reply;
    if (!daemons[p].control.GetScores(&reply).ok()) return false;
    out[p].entries = std::move(reply.entries);
    out[p].world = reply.world_score;
  }
  return true;
}

Rep RunRep(const Spec& spec, const Inputs& in, const Oracle& oracle, bool traced,
           Result& result) {
  Rep rep;
  const size_t num_daemons = traced ? kPeers + 1 : kPeers;  // +1 idle, traced.
  std::vector<Daemon> daemons(num_daemons);
  const double children0 = ChildrenCpuSeconds();
  const uint64_t setup0 = WallNs();
  for (size_t p = 0; p < num_daemons; ++p) {
    if (!Spawn(in, p, daemons[p])) {
      result.Fail("daemon " + std::to_string(p) + " failed to start");
      StopAll(daemons);
      return rep;
    }
  }
  // Connect only once every daemon is forked, so no daemon inherits another
  // one's control connection.
  for (Daemon& d : daemons) {
    if (!d.control.Connect(d.port).ok()) {
      result.Fail("control connect failed");
      StopAll(daemons);
      return rep;
    }
  }
  rep.setup_s = NsToS(WallNs() - setup0);

  rep.daemon_cpu_s.assign(kPeers, 0);
  for (size_t r = 0; r < spec.rounds(); ++r) {
    const auto& order = in.schedule[r];
    jxp::net::MeetResultMessage outcome[2];
    bool ok[2] = {false, false};
    Span spans[3];
    std::vector<double> cpu0(kPeers);
    for (size_t p = 0; p < kPeers; ++p) cpu0[p] = CpuSeconds(daemons[p].cpu_clock);
    const double self0 = ProcessCpuSeconds();
    const uint64_t t0 = WallNs();
    const auto meet = [&](int k) {
      const uint32_t a = order[2 * k], b = order[2 * k + 1];
      Timed(spans[k], [&] {
        ok[k] = daemons[a].control.Meet(b, daemons[b].port, &outcome[k]).ok();
      });
    };
    std::thread second(meet, 1);
    std::thread status;
    if (traced) {
      status = std::thread([&] {
        jxp::net::StatusReplyMessage reply;
        Timed(spans[2], [&] { return daemons[kPeers].control.GetStatus(&reply).ok(); });
      });
    }
    meet(0);
    second.join();
    if (traced) status.join();
    const uint64_t t1 = WallNs();
    rep.meet_s += NsToS(t1 - t0);
    rep.meet_cpu_s += ProcessCpuSeconds() - self0;
    for (size_t p = 0; p < kPeers; ++p) {
      rep.daemon_cpu_s[p] += CpuSeconds(daemons[p].cpu_clock) - cpu0[p];
    }
    for (int k = 0; k < 2; ++k) {
      ++rep.meetings;
      rep.bytes += static_cast<double>(outcome[k].bytes_sent + outcome[k].bytes_received);
      if (!ok[k] || !outcome[k].applied || outcome[k].salvaged) ++rep.failed;
    }
    if (traced) {
      const char* names[3] = {"net.meet_rpc", "net.meet_rpc", "net.status_rpc"};
      for (int k = 0; k < 3; ++k) {
        spans[k].name = names[k];
        spans[k].id = static_cast<int64_t>(rep.spans.size());
        spans[k].op = k < 2 ? static_cast<int64_t>(2 * r + k) : static_cast<int64_t>(r);
        rep.spans.push_back(spans[k]);
      }
      rep.meet_rpc_ms.push_back(NsToMs(spans[0].duration_ns()));
      rep.meet_rpc_ms.push_back(NsToMs(spans[1].duration_ns()));
      rep.status_rpc_ms.push_back(NsToMs(spans[2].duration_ns()));
    }
    rep.rounds = r + 1;
    if (rep.rounds % kProbeEvery == 0) {
      const uint64_t p0 = WallNs();
      if (!ReadScores(daemons, rep.final_scores)) {
        result.Fail("score read failed");
        break;
      }
      const double footrule = Footrule(rep.final_scores, in);
      rep.probe_ms.push_back(NsToMs(WallNs() - p0));
      rep.reached = rep.rounds == spec.rounds() && footrule <= oracle.target;
      rep.failed += Overestimates(rep.final_scores, in) > 0 ? 2 * kProbeEvery : 0;
    }
  }
  if (traced) {
    for (size_t p = 0; p < kPeers; ++p) {
      jxp::net::NetStatsReplyMessage stats;
      if (!daemons[p].control.GetNetStats(&stats).ok()) {
        result.Fail("net stats read failed");
        continue;
      }
      rep.dials += stats.dials;
      rep.bytes_sent += stats.bytes_sent;
    }
  }
  if (!StopAll(daemons)) result.Fail("a daemon did not exit cleanly");
  // The daemons' whole lives (peer set-up, meetings, score reads, exit) were
  // spent reaching the target; getrusage sees them once they are reaped.
  rep.meet_cpu_s += ChildrenCpuSeconds() - children0;
  return rep;
}

}  // namespace

void RunCluster(const Options& options, Result& result) {
  // Control connections can hit a daemon mid-teardown; EPIPE must come back
  // as a Status.
  ::signal(SIGPIPE, SIG_IGN);
  const Spec spec = ClusterSpec(options);
  const Inputs in = MakeInputs(spec, options);
  const Oracle oracle = RunOracle(spec, in);
  Note("cluster: %zu pages, %zu links, %zu daemons, target footrule %.6g (oracle after "
       "%zu meetings)",
       in.graph.NumNodes(), in.graph.NumEdges(), kPeers, oracle.target, spec.meetings);

  std::vector<Rep> reps;
  const uint64_t start = WallNs();
  const size_t untraced = options.trace ? 1 : kReps;
  while (reps.size() < untraced ||
         (!options.trace && NsToS(WallNs() - start) < options.seconds)) {
    reps.push_back(RunRep(spec, in, oracle, false, result));
  }
  if (options.trace) reps.push_back(RunRep(spec, in, oracle, true, result));

  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    const bool same = Identical(rep.final_scores, oracle.final_scores);
    Note("cluster rep %zu: setup %.3fs, %zu meetings in %.3fs (cpu %.3fs), %.2f MB, "
         "reached=%d, oracle-identical=%d",
         i, rep.setup_s, rep.meetings, rep.meet_s, rep.meet_cpu_s, rep.bytes * 1e-6,
         rep.reached ? 1 : 0, same ? 1 : 0);
    result.attempted += rep.meetings;
    result.failed += same ? rep.failed : rep.meetings;
    if (!rep.reached) result.Fail("target not reached");
    if (!same) result.Fail("daemon scores differ from the in-process oracle");
  }

  if (!options.trace) {
    // Medians over repetitions, each repetition's reads summarised first.
    std::vector<double> setup, meet, cpu, rate, read_p50, read_p90, read_rate;
    for (const Rep& rep : reps) {
      setup.push_back(rep.setup_s);
      meet.push_back(rep.meet_s);
      cpu.push_back(rep.meet_cpu_s);
      rate.push_back(static_cast<double>(rep.meetings) / rep.meet_s);
      double read_s = 0;
      for (double ms : rep.probe_ms) read_s += ms * 1e-3;
      read_p50.push_back(Percentile(rep.probe_ms, 50));
      read_p90.push_back(Percentile(rep.probe_ms, 90));
      read_rate.push_back(static_cast<double>(rep.probe_ms.size()) / read_s);
    }
    result.Add("setup_s", Median(setup), "s");
    result.Add("time_to_target_s", Median(meet), "s");
    result.Add("cpu_to_target_s", Median(cpu), "s");
    result.Add("meetings_per_s", Median(rate), "1/s");
    result.Add("mb_to_target", reps.front().bytes * 1e-6, "MB");
    result.Add("query_p50_ms", Median(read_p50), "ms");
    result.Add("query_p90_ms", Median(read_p90), "ms");
    result.Add("queries_per_s", Median(read_rate), "1/s");
    result.Add("peak_rss_mb", PeakRssMb() + PeakChildRssMb(), "MB");
    return;
  }

  const Rep& reference = reps.front();
  const Rep& traced = reps.back();
  result.Add("net.meet_rpc_ms.p50", Percentile(traced.meet_rpc_ms, 50), "ms");
  result.Add("net.meet_rpc_ms.p99", Percentile(traced.meet_rpc_ms, 99), "ms");
  result.Add("net.status_rpc_ms.p99", Percentile(traced.status_rpc_ms, 99), "ms");
  const double meetings = static_cast<double>(traced.meetings);
  const double dials = static_cast<double>(traced.dials);
  const double bytes_sent = static_cast<double>(traced.bytes_sent);
  result.Add("net.dials_per_meeting", Ratio(dials, meetings), "count");
  result.Add("net.bytes_per_meeting", Ratio(bytes_sent, meetings), "bytes");
  result.Add("net.daemon_cpu_imbalance",
             *std::max_element(traced.daemon_cpu_s.begin(), traced.daemon_cpu_s.end()) /
                 Mean(traced.daemon_cpu_s),
             "ratio");
  result.Add("core.meetings_to_target", static_cast<double>(traced.meetings), "count");
  result.Add("eval.us.p50", Percentile(traced.probe_ms, 50) * 1e3, "us");
  result.Add("trace.overhead", traced.meet_s / reference.meet_s, "ratio");
  if (!options.trace_out.empty() &&
      !WriteSpans(options.trace_out, traced.spans,
                  traced.spans.empty() ? 0 : traced.spans.front().start_ns)) {
    result.Fail("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
