// Shared plumbing of the end-to-end benchmark: options, the cold set-up
// every workload starts from, latency statistics, the in-memory span log of
// traced runs, and the one-line JSON report.
//
// The benchmark drives DeepRest only through its public API. Every run
// simulates and trains its model in-process (no on-disk model cache), so
// each run starts from the same state and set-up time is measured cold.
#ifndef E2EBENCH_SRC_COMMON_H_
#define E2EBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/estimator.h"
#include "src/eval/harness.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Unmeasured load before every measured phase: lets thread-local arenas,
// the allocator and the state cache reach their steady state.
inline constexpr double kWarmupSeconds = 2.0;

inline Clock::time_point After(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Span files and per-run scratch, relative to the checkout root (the
  // working directory).
  std::string out_dir = ".e2ebench_out";
};

// Process start, taken as the first statement of main(); set-up time runs
// from here.
Clock::time_point ProcessStart();
void MarkProcessStart();

// The learning-phase configuration shared by every workload: the social
// network, seven days of 48 windows, and the repository's bench model size
// (bench/common.h SocialBenchConfig), with the model cache off.
deeprest::HarnessConfig BenchHarnessConfig(uint64_t harness_seed);

// Cold set-up: simulate the learning phase, train DeepRest. Timed per step
// for the per-layer metrics.
struct Setup {
  std::unique_ptr<deeprest::ExperimentHarness> harness;
  std::shared_ptr<const deeprest::DeepRestEstimator> model;
  double sim_s = 0.0;    // learning-phase simulation (harness construction)
  double train_s = 0.0;  // DeepRestEstimator::Learn
};
Setup BuildSetup(uint64_t harness_seed);

// Nearest-rank quantile of an unsorted sample (copy sorted internally).
double Quantile(std::vector<double> values, double q);

// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

// Span log of traced runs: kept in memory, written once at exit. A span is
// one call into a layer (or one request from submission to result), with
// the id of the operation it belongs to.
struct Span {
  std::string name;
  uint64_t op = 0;
  int64_t start_ns = 0;  // since process start
  int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void Record(const std::string& name, uint64_t op, Clock::time_point start,
              Clock::time_point end);
  // Sum / mean of one span name's durations (ms); 0 when there is none.
  double TotalMs(const std::string& name) const;
  double MeanMs(const std::string& name) const;
  // Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  // Total ms and count of the spans named `name`.
  std::pair<double, size_t> Sum(const std::string& name) const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one call into a layer and records it under `name`.
template <typename Fn>
auto Timed(SpanLog& log, const std::string& name, uint64_t op, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log.Record(name, op, start, Clock::now());
  } else {
    auto result = fn();
    log.Record(name, op, start, Clock::now());
    return result;
  }
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. End-to-end metrics are printed when the run is
// untraced, per-layer metrics when it is traced.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;  // why `correct` is false
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Prints a human-readable summary to stdout, then the JSON result as the
// last line.
void PrintReport(const Report& report, bool trace);

// The five end-to-end metrics, in BENCHMARK.json order.
void AddEndToEnd(Report& report, double setup_s, double ops_per_s,
                 const std::vector<double>& latencies_ms, double peak_rss_mb);

}  // namespace e2e

#endif  // E2EBENCH_SRC_COMMON_H_
