#include "src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2e {

namespace {

Clock::time_point g_process_start = Clock::now();

// JSON number with all its digits (never exponent-free rounding).
std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }
void MarkProcessStart() { g_process_start = Clock::now(); }

deeprest::HarnessConfig BenchHarnessConfig(uint64_t harness_seed) {
  deeprest::HarnessConfig config;
  config.app = deeprest::HarnessConfig::AppKind::kSocialNetwork;
  config.learn_days = 7;
  config.windows_per_day = 48;
  config.base_requests_per_window = 110.0;
  config.seed = harness_seed;
  config.estimator.hidden_dim = 12;
  config.estimator.epochs = 12;
  config.estimator.bptt_chunk = 48;
  config.cache_models = false;
  return config;
}

Setup BuildSetup(uint64_t harness_seed) {
  Setup setup;
  Clock::time_point start = Clock::now();
  setup.harness = std::make_unique<deeprest::ExperimentHarness>(BenchHarnessConfig(harness_seed));
  setup.sim_s = SecondsBetween(start, Clock::now());
  start = Clock::now();
  // With the cache off, deeprest() is exactly one DeepRestEstimator::Learn
  // over the learning phase.
  deeprest::DeepRestEstimator& trained = setup.harness->deeprest();
  setup.train_s = SecondsBetween(start, Clock::now());
  // Non-owning: the harness owns the trained model and outlives every user.
  setup.model = std::shared_ptr<const deeprest::DeepRestEstimator>(std::shared_ptr<void>(),
                                                                   &trained);
  return setup;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void SpanLog::Record(const std::string& name, uint64_t op, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.op = op;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - g_process_start)
                      .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - g_process_start).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::pair<double, size_t> SpanLog::Sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::pair<double, size_t> sum{0.0, 0};
  for (const Span& span : spans_) {
    if (span.name == name) {
      sum.first += span.ms();
      ++sum.second;
    }
  }
  return sum;
}

double SpanLog::TotalMs(const std::string& name) const { return Sum(name).first; }

double SpanLog::MeanMs(const std::string& name) const {
  const auto [total, count] = Sum(name);
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << Escaped(span.name) << "\",\"op\":" << span.op
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void AddEndToEnd(Report& report, double setup_s, double ops_per_s,
                 const std::vector<double>& latencies_ms, double peak_rss_mb) {
  report.end_to_end.push_back({"setup_s", setup_s, "s"});
  report.end_to_end.push_back({"ops_per_s", ops_per_s, "1/s"});
  report.end_to_end.push_back({"latency_p50_ms", Quantile(latencies_ms, 0.5), "ms"});
  report.end_to_end.push_back({"latency_p90_ms", Quantile(latencies_ms, 0.9), "ms"});
  report.end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
}

void PrintReport(const Report& report, bool trace) {
  const std::vector<Metric>& metrics = trace ? report.per_layer : report.end_to_end;
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace e2e
