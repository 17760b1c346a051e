#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double MaxRssMb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

}  // namespace

uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ChildrenCpuSeconds() { return CpuSeconds(RUSAGE_CHILDREN); }
double PeakRssMb() { return MaxRssMb(RUSAGE_SELF); }
double PeakChildRssMb() { return MaxRssMb(RUSAGE_CHILDREN); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TrimmedMean(std::vector<double> values, double trim) {
  std::sort(values.begin(), values.end());
  const size_t drop = static_cast<size_t>(trim * static_cast<double>(values.size()));
  if (2 * drop >= values.size()) return Median(std::move(values));
  return Mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(drop),
                                  values.end() - static_cast<std::ptrdiff_t>(drop)));
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                uint64_t origin_ns) {
  std::ofstream out(path);
  if (!out) return false;
  char line[256];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,\"cpu_ns\":%llu,"
                  "\"id\":%lld,\"parent\":%lld,\"op\":%lld}\n",
                  span.name, static_cast<unsigned long long>(span.start_ns - origin_ns),
                  static_cast<unsigned long long>(span.end_ns - origin_ns),
                  static_cast<unsigned long long>(span.cpu_ns),
                  static_cast<long long>(span.id), static_cast<long long>(span.parent),
                  static_cast<long long>(span.op));
    out << line;
  }
  return static_cast<bool>(out);
}

void Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
