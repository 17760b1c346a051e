// Shared plumbing of the JXP benchmark: command-line options, clocks,
// summary statistics, the in-memory span log of the traced mode, and the
// result object every workload fills.

#ifndef JXP_PERFBENCH_HARNESS_H_
#define JXP_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measurement budget in seconds; workloads repeat their measured unit
  /// until it is spent (and at least a workload-specific minimum of times).
  double seconds = 10;
  /// Traced mode: time each layer from outside and print per-layer metrics.
  bool trace = false;
  /// Where the traced mode writes its spans (JSON lines).
  std::string trace_out;
  /// "bench" (the measured size) or "small" (a seconds-long smoke size).
  std::string size = "bench";
  /// Test hook: corrupt the workload's oracle so that correct answers are
  /// judged wrong. Every such mismatch must be counted as a failure.
  bool wrong_oracle = false;

  bool small() const { return size == "small"; }
};

// ---------------------------------------------------------------------------
// Clocks.

/// Monotonic wall clock, nanoseconds.
uint64_t WallNs();
/// CPU time of the calling thread, nanoseconds.
uint64_t ThreadCpuNs();
/// CPU time (user + system) of this process from getrusage, seconds.
double ProcessCpuSeconds();
/// CPU time of all reaped children from getrusage, seconds.
double ChildrenCpuSeconds();
/// Peak resident set size from getrusage: this process, and the largest
/// reaped child. Megabytes.
double PeakRssMb();
double PeakChildRssMb();

inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}
double Mean(const std::vector<double>& values);
/// Mean of the values left after dropping the lowest and highest `trim`
/// share of them (a stall in one repetition moves it less than the mean).
double TrimmedMean(std::vector<double> values, double trim);
/// num / den, or 0 when den is 0 (an unexercised layer).
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Traced mode.

/// One timed call into a layer. `id` is unique within the run; `parent` is
/// the id of the enclosing span or -1; `op` is the meeting or query the span
/// belongs to.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;
  int64_t id = -1;
  int64_t parent = -1;
  int64_t op = -1;
  uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// Writes spans as JSON lines: {"name","start_ns","end_ns","cpu_ns","id",
/// "parent","op"}; start/end are relative to `origin_ns`. Returns false when
/// the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                uint64_t origin_ns);

/// Times `fn` into `span` (wall clock plus the calling thread's CPU clock).
template <typename Fn>
auto Timed(Span& span, Fn&& fn) {
  span.start_ns = WallNs();
  const uint64_t cpu0 = ThreadCpuNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    span.cpu_ns = ThreadCpuNs() - cpu0;
    span.end_ns = WallNs();
  } else {
    auto result = fn();
    span.cpu_ns = ThreadCpuNs() - cpu0;
    span.end_ns = WallNs();
    return result;
  }
}

// ---------------------------------------------------------------------------
// Results.

/// What a workload reports. `metrics` keeps insertion order; main() checks
/// the names against the benchmark's metric list before printing.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Extra correctness failures that are not tied to one operation (for
  /// example, a run that never reached its target).
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) { errors.push_back(why); }
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Informational line on stderr (the last stdout line is the result).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Workloads. Each fills `result` with every end-to-end metric (untraced) or
// every per-layer metric (traced); see perfbench/README.md.
void RunConverge(const Options& options, Result& result);
void RunRecrawl(const Options& options, Result& result);
void RunServe(const Options& options, Result& result);
void RunCluster(const Options& options, Result& result);

}  // namespace perfbench

#endif  // JXP_PERFBENCH_HARNESS_H_
