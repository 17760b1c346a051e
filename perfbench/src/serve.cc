// The serving workload, `serve`: the Section 6.3 40-peer index (MaxScore
// over the packed codec, threshold priming) answering a Zipfian query trace
// through QueryServer::ServeConcurrent on two worker threads. The meeting
// engine is not involved.
//
// Arms, in order: a warm-up pass; a closed loop that serves the whole trace
// back to back, pass after pass (queries/s, time and CPU per pass); an open
// loop at a fixed Poisson rate, each latency counted from the query's
// scheduled arrival. Every answer is compared with the answer ServeBatch
// computed for the same query before any timing started.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"
#include "harness.h"
#include "obs/latency_recorder.h"
#include "pagerank/pagerank.h"
#include "qp/serving.h"
#include "search/corpus.h"
#include "search/index.h"

namespace perfbench {
namespace {

constexpr size_t kWorkers = 2;
/// Open-loop arrival rate: about a quarter of the closed loop's capacity on
/// a 4-core x86 machine, so the queue stays short and p90 reflects service.
constexpr double kOpenLoopQps = 2000;
/// Fine posting blocks, as in bench/sustained_load: the 40-peer layout needs
/// them before block-max skipping engages.
constexpr size_t kBlockSize = 16;

struct Inputs {
  jxp::datasets::Collection collection;
  std::unique_ptr<jxp::search::Corpus> corpus;
  std::vector<std::unique_ptr<jxp::search::PeerIndex>> indexes;
  std::unordered_map<jxp::graph::PageId, double> prior;
  std::vector<jxp::qp::ServedQuery> pool;  // Distinct queries.
  std::vector<size_t> trace;               // Zipfian draws from the pool.
  std::vector<uint64_t> arrivals_ns;       // Open-loop schedule.
};

Inputs MakeInputs(const Options& options) {
  Inputs in;
  const uint64_t seed = options.seed;
  in.collection = jxp::datasets::MakeWebCrawlLike(options.small() ? 0.01 : 0.05, seed);
  const auto& data = in.collection.data;
  jxp::Random rng(seed);
  const auto fragments = jxp::crawler::FragmentSplitPartition(data, 4, 3, rng);
  in.corpus = std::make_unique<jxp::search::Corpus>(
      jxp::search::Corpus::Generate(data, jxp::search::CorpusOptions(), seed ^ 0xc0de));
  for (size_t p = 0; p < fragments.size(); ++p) {
    auto index =
        std::make_unique<jxp::search::PeerIndex>(static_cast<jxp::p2p::PeerId>(p));
    for (jxp::graph::PageId page : fragments[p]) {
      index->AddDocument(in.corpus->DocumentFor(page));
    }
    in.indexes.push_back(std::move(index));
  }
  const auto truth =
      jxp::pagerank::ComputePageRank(data.graph, jxp::pagerank::PageRankOptions());
  for (jxp::graph::PageId p = 0; p < data.graph.NumNodes(); ++p) {
    in.prior[p] = truth.scores[p];
  }

  const size_t pool_size = options.small() ? 100 : 1000;
  jxp::Random qrng(seed + 1);
  for (size_t i = 0; i < pool_size; ++i) {
    jxp::qp::ServedQuery query;
    query.terms = in.corpus->SampleQueryTerms(
        static_cast<jxp::graph::CategoryId>(i % data.num_categories), 1 + i % 3, qrng);
    in.pool.push_back(std::move(query));
  }
  // Zipf(1) popularity over the pool, the skew of real query logs.
  std::vector<double> cdf(pool_size);
  double total = 0;
  for (size_t i = 0; i < pool_size; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  jxp::Random zrng(seed + 2);
  for (size_t i = 0; i < 2 * pool_size; ++i) {
    const double u = zrng.NextDouble() * total;
    const size_t pick =
        static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    in.trace.push_back(std::min(pick, pool_size - 1));
  }
  jxp::Random arng(seed + 3);
  double t = 0;
  const double horizon_s = options.seconds;  // Never more than the whole budget.
  while (true) {
    t += -std::log(1.0 - arng.NextDouble()) / kOpenLoopQps;
    if (t >= horizon_s) break;
    in.arrivals_ns.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return in;
}

/// Set-up: a fresh server with every peer frozen into the compressed layout.
std::unique_ptr<jxp::qp::QueryServer> BuildServer(const Inputs& in,
                                                  std::vector<Span>* spans) {
  jxp::qp::ServingOptions serving;
  serving.processor = jxp::qp::ProcessorKind::kMaxScore;
  serving.k = 10;
  serving.num_threads = 1;
  serving.threshold_priming = true;
  serving.result_cache_capacity = in.pool.size();
  serving.threshold_cache_capacity = in.pool.size();
  auto server = std::make_unique<jxp::qp::QueryServer>(in.corpus.get(), serving);
  jxp::qp::CompressedIndexOptions copts;
  copts.block_size = kBlockSize;
  copts.codec = jxp::qp::BlockCodec::kPacked;
  copts.prior_weight = 0.4;
  for (const auto& index : in.indexes) {
    Span span;
    span.name = "qp.freeze";
    Timed(span, [&] { server->AddPeer(index.get(), in.prior, copts); });
    if (spans != nullptr) {
      span.id = static_cast<int64_t>(spans->size());
      spans->push_back(span);
    }
  }
  return server;
}

bool SameAnswer(const jxp::qp::ServedResult& got, const jxp::qp::ServedResult& want) {
  return got.results == want.results;  // Bitwise: same pages, same doubles.
}

/// Per-query timing of one served query.
struct Served {
  uint64_t start = 0;
  uint64_t end = 0;
  size_t postings = 0;
  // Open loop only: when the query was due, how long it waited for the
  // worker's previous query, and how late it started once the worker was
  // free (the generator's lateness).
  uint64_t scheduled = 0;
  uint64_t queue_wait = 0;
  uint64_t gen_late = 0;
};

/// One stage-latency recorder per worker (merged after the run).
using Recorders = std::vector<std::unique_ptr<jxp::obs::LatencyRecorder>>;

/// Everything the workers of one arm produced.
struct Arm {
  std::vector<std::vector<Served>> per_worker;
  uint64_t wall_ns = 0;
  double cpu_s = 0;
  size_t failed = 0;
  size_t queries = 0;
};

/// Serves trace positions [0, count) — position j is query trace[j % size] —
/// on kWorkers threads (worker w takes j = w, w + kWorkers, ...). With
/// `arrivals`, position j is due at start + arrivals[j] (open loop).
void RunArm(jxp::qp::QueryServer& server, const Inputs& in,
            const std::vector<jxp::qp::ServedResult>& oracle, size_t count,
            const std::vector<uint64_t>* arrivals, Recorders* recorders, Arm& arm) {
  arm.per_worker.assign(kWorkers, {});
  std::vector<size_t> failed(kWorkers, 0);
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t start = WallNs();
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<Served>& log = arm.per_worker[w];
      log.reserve(count / kWorkers + 1);
      jxp::obs::LatencyRecorder* recorder = recorders ? (*recorders)[w].get() : nullptr;
      uint64_t free_at = start;
      jxp::qp::ServedResult result;
      for (size_t j = w; j < count; j += kWorkers) {
        Served s;
        if (arrivals != nullptr) {
          s.scheduled = start + (*arrivals)[j];
          const uint64_t now = WallNs();
          if (now < s.scheduled) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(s.scheduled - now));
          }
        }
        const size_t q = in.trace[j % in.trace.size()];
        result = jxp::qp::ServedResult();
        s.start = WallNs();
        server.ServeConcurrent(in.pool[q], result, recorder);
        s.end = WallNs();
        if (arrivals != nullptr) {
          s.queue_wait = free_at > s.scheduled ? free_at - s.scheduled : 0;
          const uint64_t ready = std::max(free_at, s.scheduled);
          s.gen_late = s.start > ready ? s.start - ready : 0;
        }
        free_at = s.end;
        s.postings = result.stats.decode.postings_decoded;
        if (!SameAnswer(result, oracle[q])) ++failed[w];
        log.push_back(s);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  arm.wall_ns = WallNs() - start;
  arm.cpu_s = ProcessCpuSeconds() - cpu0;
  arm.queries = count;
  for (size_t f : failed) arm.failed += f;
}

std::vector<double> Collect(const Arm& arm, uint64_t Served::*from,
                            uint64_t Served::*to) {
  std::vector<double> out;
  for (const auto& log : arm.per_worker) {
    for (const Served& s : log) out.push_back(NsToUs(s.*to - s.*from));
  }
  return out;
}

std::vector<double> Field(const Arm& arm, uint64_t Served::*field) {
  std::vector<double> out;
  for (const auto& log : arm.per_worker) {
    for (const Served& s : log) out.push_back(NsToUs(s.*field));
  }
  return out;
}

/// Open-loop latency percentile `p` (ms) per one-second window of scheduled
/// arrivals, then the median over the windows: a stall of the machine spoils
/// the windows it falls in, not the whole figure. Windows with fewer than
/// half the expected arrivals (the ragged last one) are skipped.
double WindowedPercentileMs(const Arm& arm, double p) {
  std::vector<std::vector<double>> windows;
  uint64_t first = UINT64_MAX;
  for (const auto& log : arm.per_worker) {
    if (!log.empty()) first = std::min(first, log.front().scheduled);
  }
  for (const auto& log : arm.per_worker) {
    for (const Served& s : log) {
      const size_t w = static_cast<size_t>((s.scheduled - first) / 1000000000ull);
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(NsToMs(s.end - s.scheduled));
    }
  }
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (static_cast<double>(window.size()) >= kOpenLoopQps / 2) {
      per_window.push_back(Percentile(window, p));
    }
  }
  return Median(per_window);
}

}  // namespace

void RunServe(const Options& options, Result& result) {
  const Inputs in = MakeInputs(options);
  Note("serve: %zu pages, %zu peers, %zu distinct queries, trace %zu, %zu open-loop "
       "arrivals budgeted",
       in.collection.data.graph.NumNodes(), in.indexes.size(), in.pool.size(),
       in.trace.size(), in.arrivals_ns.size());

  // Set-up, seven times (its figure is the median); the last server is the
  // one measured.
  std::vector<double> setup_s, freeze_s;
  std::vector<Span> spans;
  std::unique_ptr<jxp::qp::QueryServer> server;
  for (int r = 0; r < 7; ++r) {
    server.reset();
    std::vector<Span> freeze;
    const uint64_t t0 = WallNs();
    server = BuildServer(in, &freeze);
    setup_s.push_back(NsToS(WallNs() - t0));
    double sum = 0;
    for (const Span& span : freeze) sum += NsToS(span.duration_ns());
    freeze_s.push_back(sum);
    if (r == 0) spans = freeze;
  }

  // The oracle: ServeBatch's answer for every distinct query.
  std::vector<jxp::qp::ServedResult> oracle = server->ServeBatch(in.pool);
  if (options.wrong_oracle) {
    // A wrong oracle: one query's expected answer changes, so every served
    // copy of that query must be counted as failed.
    oracle[0].results.push_back({0, 0.0});
  }

  const double budget = options.seconds;
  const size_t pass = in.trace.size();
  Arm warm;
  RunArm(*server, in, oracle, pass, nullptr, nullptr, warm);
  result.attempted += warm.queries;
  result.failed += warm.failed;

  // Closed loop: whole-trace passes for 40% of the budget (at least three).
  std::vector<Arm> passes;
  std::vector<Arm> traced_passes;
  Recorders recorders;
  for (size_t w = 0; w < kWorkers; ++w) {
    recorders.push_back(std::make_unique<jxp::obs::LatencyRecorder>());
  }
  const uint64_t closed_start = WallNs();
  while (passes.size() < 3 || NsToS(WallNs() - closed_start) < 0.4 * budget) {
    passes.emplace_back();
    RunArm(*server, in, oracle, pass, nullptr, nullptr, passes.back());
    if (options.trace) {
      // Alternate untraced and traced passes, so the overhead ratio compares
      // neighbours in time.
      traced_passes.emplace_back();
      RunArm(*server, in, oracle, pass, nullptr, &recorders, traced_passes.back());
    }
  }

  // Open loop at a fixed rate for the rest of the budget (at least 2 s).
  const double open_s = std::max(2.0, budget - NsToS(WallNs() - closed_start));
  size_t arrivals = 0;
  while (arrivals < in.arrivals_ns.size() &&
         NsToS(in.arrivals_ns[arrivals]) < open_s) {
    ++arrivals;
  }
  Arm open;
  RunArm(*server, in, oracle, arrivals, &in.arrivals_ns,
         options.trace ? &recorders : nullptr, open);

  result.attempted += open.queries;
  result.failed += open.failed;
  for (const auto* arms : {&passes, &traced_passes}) {
    for (const Arm& arm : *arms) {
      result.attempted += arm.queries;
      result.failed += arm.failed;
    }
  }

  std::vector<double> pass_s, pass_cpu, qps;
  for (const Arm& arm : passes) {
    pass_s.push_back(NsToS(arm.wall_ns));
    pass_cpu.push_back(arm.cpu_s);
    qps.push_back(static_cast<double>(arm.queries) / NsToS(arm.wall_ns));
  }
  const std::vector<double> latency_us = Collect(open, &Served::scheduled, &Served::end);
  Note("serve: closed loop %zu passes of %zu queries, median %.0f qps; open loop %zu "
       "queries at %.0f qps: p50 %.3f ms p90 %.3f ms p99 %.3f ms (%zu samples above p99) "
       "p99.9 %.3f ms (%zu above)",
       passes.size(), pass, Median(qps), open.queries, kOpenLoopQps,
       Percentile(latency_us, 50) * 1e-3, Percentile(latency_us, 90) * 1e-3,
       Percentile(latency_us, 99) * 1e-3, latency_us.size() / 100,
       Percentile(latency_us, 99.9) * 1e-3, latency_us.size() / 1000);

  if (!options.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("time_to_target_s", Median(pass_s), "s");
    result.Add("cpu_to_target_s", Median(pass_cpu), "s");
    const double peers = static_cast<double>(in.indexes.size());
    result.Add("meetings_per_s", Median(qps) * peers, "1/s");
    const jxp::qp::CompressedIndexStats& stats = server->index_stats();
    const size_t index_bytes = stats.docid_bytes + stats.freq_bytes +
                               stats.block_metadata_bytes + stats.list_metadata_bytes +
                               stats.prior_bytes;
    result.Add("mb_to_target", static_cast<double>(index_bytes) * 1e-6, "MB");
    result.Add("query_p50_ms", WindowedPercentileMs(open, 50), "ms");
    result.Add("query_p90_ms", WindowedPercentileMs(open, 90), "ms");
    result.Add("queries_per_s", Median(qps), "1/s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced: spans for every traced closed-loop query and every open-loop
  // query (request from scheduled arrival, service as its child).
  std::vector<double> service_us;
  std::vector<double> traced_s;
  double postings = 0;
  size_t served = 0;
  int64_t query_id = 0;
  const auto add_service = [&](const Served& s, int64_t parent) {
    Span span;
    span.name = "qp.service";
    span.start_ns = s.start;
    span.end_ns = s.end;
    span.id = static_cast<int64_t>(spans.size());
    span.parent = parent;
    span.op = query_id;
    spans.push_back(span);
    service_us.push_back(NsToUs(s.end - s.start));
    postings += static_cast<double>(s.postings);
    ++served;
  };
  for (const Arm& arm : traced_passes) {
    traced_s.push_back(NsToS(arm.wall_ns));
    for (const auto& log : arm.per_worker) {
      for (const Served& s : log) {
        add_service(s, -1);
        ++query_id;
      }
    }
  }
  for (const auto& log : open.per_worker) {
    for (const Served& s : log) {
      Span request;
      request.name = "qp.request";
      request.start_ns = s.scheduled;
      request.end_ns = s.end;
      request.id = static_cast<int64_t>(spans.size());
      request.op = query_id;
      spans.push_back(request);
      add_service(s, request.id);
      ++query_id;
    }
  }
  jxp::obs::LatencyRecorder stages;
  for (const auto& recorder : recorders) stages.MergeFrom(*recorder);
  using Stage = jxp::obs::LatencyStage;
  const auto stage_p50_us = [&stages](Stage stage) {
    return static_cast<double>(stages.StageSnapshot(stage).ValueAtPercentile(50)) * 1e-3;
  };
  const std::vector<double> queue_wait = Field(open, &Served::queue_wait);
  const std::vector<double> gen_late = Field(open, &Served::gen_late);

  result.Add("qp.service_us.p50", Percentile(service_us, 50), "us");
  result.Add("qp.service_us.p99", Percentile(service_us, 99), "us");
  result.Add("qp.queue_wait_us.p50", Percentile(queue_wait, 50), "us");
  result.Add("qp.queue_wait_us.p99", Percentile(queue_wait, 99), "us");
  result.Add("qp.gen_late_us.p99", Percentile(gen_late, 99), "us");
  result.Add("qp.stage.priming_us.p50", stage_p50_us(Stage::kPriming), "us");
  result.Add("qp.stage.decode_us.p50", stage_p50_us(Stage::kDecode), "us");
  result.Add("qp.stage.scoring_us.p50", stage_p50_us(Stage::kScoring), "us");
  result.Add("qp.stage.heap_us.p50", stage_p50_us(Stage::kHeap), "us");
  result.Add("qp.stage.fan_in_us.p50", stage_p50_us(Stage::kFanIn), "us");
  result.Add("qp.postings_per_query", postings / static_cast<double>(served), "count");
  result.Add("qp.freeze_s", Median(freeze_s), "s");
  result.Add("trace.overhead", Median(traced_s) / Median(pass_s), "ratio");

  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  if (!options.trace_out.empty() && !WriteSpans(options.trace_out, spans, origin)) {
    result.Fail("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
