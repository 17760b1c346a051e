// jxp_perfbench: runs one named workload of the JXP benchmark and prints
// its result as the last line of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//   jxp_perfbench --workload converge|recrawl|serve|cluster --seed N
//       --seconds S --trace 0|1 [--trace-out PATH] [--size bench|small]
//       [--wrong-oracle]
//
// Progress notes go to standard error. Exit code 0 means the run finished
// (whether or not its outputs were correct); anything else is a usage or
// set-up error, and then no result line is printed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run (BENCHMARK.json lists
/// the same names and units).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"time_to_target_s", "s"},
    {"cpu_to_target_s", "s"},
    {"meetings_per_s", "1/s"},
    {"mb_to_target", "MB"},
    {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by every traced run. A workload that does not
/// exercise a layer reports 0 for that layer's metrics.
constexpr MetricSpec kPerLayer[] = {
    {"wire.encode_us.p50", "us"},
    {"wire.encode_us.p99", "us"},
    {"wire.decode_us.p50", "us"},
    {"wire.decode_us.p99", "us"},
    {"wire.bytes_per_message", "bytes"},
    {"core.apply_self_us.p50", "us"},
    {"core.apply_self_us.p99", "us"},
    {"core.meeting_us.p50", "us"},
    {"core.meeting_us.p99", "us"},
    {"core.apply_share", "ratio"},
    {"core.codec_share", "ratio"},
    {"core.world_entries_mean", "count"},
    {"core.recrawl_us.p50", "us"},
    {"core.extended_cache_hit_ratio", "ratio"},
    {"core.meetings_to_target", "count"},
    {"markov.iterations_per_solve", "count"},
    {"pool.cpu_util", "ratio"},
    {"core.round_imbalance", "ratio"},
    {"eval.us.p50", "us"},
    {"qp.service_us.p50", "us"},
    {"qp.service_us.p99", "us"},
    {"qp.queue_wait_us.p50", "us"},
    {"qp.queue_wait_us.p99", "us"},
    {"qp.gen_late_us.p99", "us"},
    {"qp.stage.priming_us.p50", "us"},
    {"qp.stage.decode_us.p50", "us"},
    {"qp.stage.scoring_us.p50", "us"},
    {"qp.stage.heap_us.p50", "us"},
    {"qp.stage.fan_in_us.p50", "us"},
    {"qp.postings_per_query", "count"},
    {"qp.freeze_s", "s"},
    {"net.meet_rpc_ms.p50", "ms"},
    {"net.meet_rpc_ms.p99", "ms"},
    {"net.status_rpc_ms.p99", "ms"},
    {"net.dials_per_meeting", "count"},
    {"net.bytes_per_meeting", "bytes"},
    {"net.daemon_cpu_imbalance", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "jxp_perfbench: %s\nusage: jxp_perfbench --workload "
               "converge|recrawl|serve|cluster --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--size bench|small] [--wrong-oracle]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-oracle") {
      options.wrong_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--size") {
      if (value != "bench" && value != "small") Usage("--size takes bench or small");
      options.size = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

/// JSON number with every digit of the double.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

int Main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  Result result;
  if (options.workload == "converge") {
    RunConverge(options, result);
  } else if (options.workload == "recrawl") {
    RunRecrawl(options, result);
  } else if (options.workload == "serve") {
    RunServe(options, result);
  } else if (options.workload == "cluster") {
    RunCluster(options, result);
  } else {
    Usage("unknown workload " + options.workload);
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "jxp_perfbench: CHECK FAILED: %s\n", error.c_str());
  }

  // Every metric of this mode, in list order, each reported at most once and
  // with its listed unit.
  std::map<std::string, std::pair<double, std::string>> reported;
  for (const auto& [name, value] : result.metrics) {
    if (!reported.emplace(name, value).second) {
      std::fprintf(stderr, "jxp_perfbench: metric %s reported twice\n", name.c_str());
      return 1;
    }
  }
  std::string metrics;
  size_t used = 0;
  const auto emit_all = [&](const auto& list, bool zero_fill) {
    for (const MetricSpec& spec : list) {
      double value = 0;
      const auto it = reported.find(spec.name);
      if (it != reported.end()) {
        if (it->second.second != spec.unit) {
          std::fprintf(stderr, "jxp_perfbench: metric %s has unit %s, not %s\n",
                       spec.name, it->second.second.c_str(), spec.unit);
          return false;
        }
        value = it->second.first;
        ++used;
      } else if (!zero_fill) {
        std::fprintf(stderr, "jxp_perfbench: workload did not report %s\n", spec.name);
        return false;
      }
      metrics += std::string(metrics.empty() ? "\"" : ", \"") + spec.name +
                 "\": {\"value\": " + Number(value) + ", \"unit\": \"" + spec.unit +
                 "\"}";
    }
    return true;
  };
  if (!(options.trace ? emit_all(kPerLayer, true) : emit_all(kEndToEnd, false))) return 1;
  if (used != reported.size()) {
    std::fprintf(stderr, "jxp_perfbench: workload reported a metric outside the list\n");
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "jxp_perfbench: workload attempted nothing\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
