// Entry point of the end-to-end benchmark:
//   e2ebench --workload <whatif|live_sanity|stream_resume> --seed <n>
//            --seconds <s> --trace <0|1>
//   e2ebench --selftest
// Prints a human-readable summary, then one JSON object as the last line of
// standard output (see README.md). Normally run through run.py, which builds
// this binary first.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/checks.h"
#include "src/workloads.h"

namespace e2e {

std::vector<Metric> PerLayerTemplate() {
  return {
      {"learn.train_s", 0.0, "s"},
      {"sim.telemetry_s", 0.0, "s"},
      {"synth.ms_per_query", 0.0, "ms"},
      {"synth.traces_per_query", 0.0, "count"},
      {"extract.ms_per_query", 0.0, "ms"},
      {"forward.ms_per_query_b1", 0.0, "ms"},
      {"forward.ms_per_query_b4", 0.0, "ms"},
      {"forward.ms_per_check", 0.0, "ms"},
      {"forward.us_per_step", 0.0, "us"},
      {"ingest.us_per_trace", 0.0, "us"},
      {"ingest.fold_ms", 0.0, "ms"},
      {"ingest.metrics_copy_ms", 0.0, "ms"},
      {"sanity.detect_ms", 0.0, "ms"},
      {"sanity.false_alarms", 0.0, "count"},
      {"sanity.missed", 0.0, "count"},
      {"service.mean_batch", 0.0, "count"},
      {"service.batches", 0.0, "count"},
      {"state_cache.hot_hit_ratio", 0.0, "ratio"},
      {"state_cache.cold_hits", 0.0, "count"},
      {"state_cache.spills", 0.0, "count"},
      {"state_cache.misses", 0.0, "count"},
      {"state_cache.drops", 0.0, "count"},
      {"state_cache.acquire_us", 0.0, "us"},
      {"budget.peak_mb", 0.0, "MiB"},
      {"traced.ops_per_s", 0.0, "1/s"},
      {"traced.latency_p50_ms", 0.0, "ms"},
  };
}

void SetMetric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  std::fprintf(stderr, "e2ebench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

// Negative tests of every correctness check on a tiny model: each check
// must pass its known-good input and flag every perturbation of it.
int SelfTest() {
  deeprest::HarnessConfig config = BenchHarnessConfig(1);
  config.learn_days = 1;
  config.windows_per_day = 24;
  config.estimator.hidden_dim = 4;
  config.estimator.epochs = 1;
  deeprest::ExperimentHarness harness(config);
  const deeprest::DeepRestEstimator& model = harness.deeprest();
  const auto features = model.features().ExtractSeries(harness.traces(), 0, 8);
  const auto estimate = model.EstimateFromFeaturesBatch({&features});
  const std::vector<std::string> toothless = RunNegativeTests(estimate.front(), features);
  for (const std::string& name : toothless) {
    std::printf("FAIL %s\n", name.c_str());
  }
  std::printf("selftest: %s\n", toothless.empty() ? "every check flags its perturbations"
                                                  : "some checks pass vacuously");
  return toothless.empty() ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::MarkProcessStart();
  e2e::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      return e2e::SelfTest();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "e2ebench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      std::fprintf(stderr, "e2ebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "usage: e2ebench --workload <whatif|live_sanity|stream_resume> "
                         "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::error_code ignored;
  std::filesystem::create_directories(opt.out_dir, ignored);

  e2e::SpanLog spans(opt.trace);
  e2e::Report report;
  if (opt.workload == "whatif") {
    report = e2e::RunWhatIf(opt, spans);
  } else if (opt.workload == "live_sanity") {
    report = e2e::RunLiveSanity(opt, spans);
  } else if (opt.workload == "stream_resume") {
    report = e2e::RunStreamResume(opt, spans);
  } else {
    std::fprintf(stderr, "e2ebench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!spans.WriteJsonLines(path)) {
      report.Fail("could not write " + path);
    }
  }
  std::printf("e2ebench %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  e2e::PrintReport(report, opt.trace);
  return 0;
}
