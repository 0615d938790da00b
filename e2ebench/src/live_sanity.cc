// Workload `live_sanity` (the paper's mode 2, Fig. 19): one monitor replays
// nine live days — a benign flat-high day, a benign single-peak day, and a
// ransomware attack on PostStorageMongoDB on day 7 — window by window. For
// each window it ingests the window's traces and metrics, seals the window
// with IngestPipeline::Fold, and waits for
// EstimationService::SubmitSanityCheck(live_start, sealed).
//
// The model is the shared learning-phase configuration (harness seed 1) and
// the scenario is fixed (it does not depend on --seed); the seed only
// permutes the order in which each window's traces are delivered, which
// must not change any sealed feature. Every run replays whole nine-day
// rounds, so the verdicts that fail repeat exactly from run to run.
#include <algorithm>
#include <memory>
#include <numeric>

#include "src/checks.h"
#include "src/serve/data_quality.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/workloads.h"

namespace e2e {

namespace {

using deeprest::EstimationService;
using deeprest::IngestPipeline;

constexpr size_t kLiveDays = 9;
constexpr size_t kWarmupWindows = 48;   // one unmeasured day before the rounds
constexpr size_t kReplayCheckEvery = 8;  // traced replay: every 8th check

struct Scenario {
  deeprest::ExperimentHarness::QueryResult live;
  deeprest::AttackSpec attack;
  std::vector<deeprest::MetricKey> keys;
  // Per live window, the delivery order of its traces (seeded).
  std::vector<std::vector<size_t>> order;
};

// The nine checking days and the attack of bench/bench_fig19_ransomware.cc.
Scenario BuildScenario(deeprest::ExperimentHarness& harness, uint64_t seed) {
  const size_t wpd = harness.config().windows_per_day;
  deeprest::TrafficSeries nine_days;
  deeprest::Rng rng(91);
  for (size_t day = 0; day < kLiveDays; ++day) {
    deeprest::TrafficSpec spec = harness.QuerySpec(1);
    if (day == 1) {
      spec.shape = deeprest::ShapeKind::kFlat;
      spec.user_scale = 1.5;
    } else if (day == 4) {
      spec.shape = deeprest::ShapeKind::kSinglePeak;
    }
    const deeprest::TrafficSeries day_traffic = deeprest::GenerateTraffic(spec, rng);
    if (day == 0) {
      nine_days = day_traffic;
    } else {
      nine_days.Append(day_traffic);
    }
  }
  Scenario scenario;
  scenario.attack.kind = deeprest::AttackSpec::Kind::kRansomware;
  scenario.attack.component = "PostStorageMongoDB";
  scenario.attack.start_window = harness.learn_windows() + 6 * wpd + wpd / 2;
  scenario.attack.end_window = scenario.attack.start_window + wpd / 6;
  harness.simulator().AddAttack(scenario.attack);
  scenario.live = harness.RunQuery(nine_days);
  scenario.keys = harness.metrics().Keys();

  deeprest::Rng order_rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  for (size_t w = scenario.live.from; w < scenario.live.to; ++w) {
    std::vector<size_t> order(harness.traces().TracesAt(w).size());
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.NextBelow(i)]);
    }
    scenario.order.push_back(std::move(order));
  }
  return scenario;
}

// Delivers live window `i` (relative) to the pipeline: traces in the seeded
// order, then every metric sample.
void IngestWindow(const deeprest::ExperimentHarness& harness, const Scenario& scenario,
                  size_t i, IngestPipeline& pipeline) {
  const size_t w = scenario.live.from + i;
  const std::vector<deeprest::Trace>& traces = harness.traces().TracesAt(w);
  for (size_t index : scenario.order[i]) {
    pipeline.IngestTrace(w, traces[index]);
  }
  for (const deeprest::MetricKey& key : scenario.keys) {
    pipeline.IngestMetric(key, w, harness.metrics().At(key, w));
  }
}

struct RoundResult {
  std::vector<double> latencies_ms;
  uint64_t failed = 0;
  uint64_t false_alarms = 0;
  uint64_t missed = 0;
  std::vector<size_t> failed_checks;  // sealed window counts of failed verdicts
  std::string first_false_alarm;      // what the first false alarm reported
  std::vector<deeprest::AnomalyEvent> final_events;
};

// One monitor pass over live windows [0, windows), on a fresh pipeline and
// a fresh default service.
RoundResult RunRound(const deeprest::ExperimentHarness& harness, const Scenario& scenario,
                     size_t windows, IngestPipeline& pipeline, EstimationService& service,
                     SpanLog& spans, uint64_t round) {
  RoundResult result;
  const size_t from = scenario.live.from;
  const size_t attack_from = scenario.attack.start_window - from;
  const size_t attack_to = scenario.attack.end_window - from;
  for (size_t i = 0; i < windows; ++i) {
    IngestWindow(harness, scenario, i, pipeline);
    pipeline.Fold(from + i + 1);
    const Clock::time_point start = Clock::now();
    EstimationService::SanityResult verdict = service.SubmitSanityCheck(from, from + i + 1).get();
    const Clock::time_point end = Clock::now();
    spans.Record("request", round * 1000000 + i, start, end);
    result.latencies_ms.push_back(MillisBetween(start, end));
    bool failed = verdict.status != deeprest::RequestStatus::kOk || verdict.to != from + i + 1;
    const VerdictJudgement judgement = JudgeVerdict(verdict.events, i + 1, attack_from,
                                                    attack_to,
                                                    deeprest::SanityConfig{}.min_event_windows);
    result.false_alarms += judgement.false_alarm ? 1 : 0;
    result.missed += judgement.missed ? 1 : 0;
    failed = failed || !judgement.ok();
    if (judgement.false_alarm && result.first_false_alarm.empty()) {
      for (const deeprest::AnomalyEvent& event : verdict.events) {
        result.first_false_alarm += "event at windows " + std::to_string(event.start_window) +
                                    "-" + std::to_string(event.end_window);
        if (!event.deviations.empty()) {
          result.first_false_alarm +=
              ", top deviation " + event.deviations.front().key.component + "/" +
              deeprest::ResourceKindName(event.deviations.front().key.resource);
        }
      }
    }
    if (failed) {
      ++result.failed;
      result.failed_checks.push_back(i + 1);
    }
    if (i + 1 == windows) {
      result.final_events = std::move(verdict.events);
    }
  }
  return result;
}

}  // namespace

Report RunLiveSanity(const Options& opt, SpanLog& spans) {
  Report report;
  Setup setup = BuildSetup(/*harness_seed=*/1);
  deeprest::ExperimentHarness& harness = *setup.harness;
  const deeprest::DeepRestEstimator& model = *setup.model;
  const Scenario scenario = BuildScenario(harness, opt.seed);
  const size_t windows = scenario.live.to - scenario.live.from;
  deeprest::ModelRegistry registry;
  registry.Publish(setup.model);
  auto pipeline = std::make_unique<IngestPipeline>(model.features());
  auto service = std::make_unique<EstimationService>(registry, *pipeline);
  const double setup_s = SecondsBetween(ProcessStart(), Clock::now());

  RunRound(harness, scenario, kWarmupWindows, *pipeline, *service, spans, 0);

  // Measured phase: whole nine-day rounds, each on a fresh pipeline and
  // service. Another round starts only if it should end within --seconds.
  const std::vector<std::vector<float>> truth_features =
      model.features().ExtractSeries(harness.traces(), scenario.live.from, scenario.live.to);
  const size_t attack_from = scenario.attack.start_window - scenario.live.from;
  const size_t attack_to = scenario.attack.end_window - scenario.live.from;
  std::vector<double> latencies;
  RoundResult first_pass;
  double measured_s = 0.0;
  double round_s = 0.0;
  uint64_t rounds = 0;
  deeprest::ServiceCounters counters;
  do {
    service.reset();
    pipeline = std::make_unique<IngestPipeline>(model.features());
    service = std::make_unique<EstimationService>(registry, *pipeline);
    const Clock::time_point start = Clock::now();
    RoundResult pass = RunRound(harness, scenario, windows, *pipeline, *service, spans, ++rounds);
    round_s = SecondsBetween(start, Clock::now());
    measured_s += round_s;
    counters = service->Counters();
    latencies.insert(latencies.end(), pass.latencies_ms.begin(), pass.latencies_ms.end());
    report.attempted += windows;
    report.failed += pass.failed;
    // Checks, outside the timed interval.
    const std::string features = CompareFeatures(
        pipeline->FeatureSlice(scenario.live.from, scenario.live.to), truth_features);
    if (!features.empty()) {
      report.Fail("sealed features vs ExtractSeries: " + features);
    }
    const std::string final_verdict =
        CheckFinalVerdict(pass.final_events, attack_from, attack_to, scenario.attack.component);
    if (!final_verdict.empty()) {
      report.Fail(final_verdict);
    }
    if (rounds == 1) {
      first_pass = std::move(pass);
    }
  } while (measured_s + round_s <= opt.seconds);
  const double peak_rss_mb = PeakRssMb();
  AddEndToEnd(report, setup_s, static_cast<double>(latencies.size()) / measured_s, latencies,
              peak_rss_mb);
  std::printf("live_sanity: %llu round(s) of %zu verdicts; per round %llu false alarm(s), "
              "%llu miss(es)",
              static_cast<unsigned long long>(rounds), windows,
              static_cast<unsigned long long>(first_pass.false_alarms),
              static_cast<unsigned long long>(first_pass.missed));
  if (!first_pass.failed_checks.empty()) {
    std::printf(" at checks %zu-%zu", first_pass.failed_checks.front(),
                first_pass.failed_checks.back());
  }
  std::printf("\n");
  if (!first_pass.first_false_alarm.empty()) {
    std::printf("live_sanity: first false alarm: %s\n", first_pass.first_false_alarm.c_str());
  }

  {
    const std::vector<std::vector<float>> day(truth_features.begin(),
                                              truth_features.begin() + kWarmupWindows);
    const auto estimate = model.EstimateFromFeaturesBatch({&day});
    for (const std::string& name : RunNegativeTests(estimate.front(), day)) {
      report.Fail("negative test did not bite: " + name);
    }
  }
  service->Stop();

  if (!opt.trace) {
    return report;
  }
  // --- Traced replay: the same windows through each layer, one thread ---
  report.per_layer = PerLayerTemplate();
  IngestPipeline replay(model.features());
  const deeprest::SanityChecker checker;
  const size_t from = scenario.live.from;
  double traces = 0.0;
  for (size_t i = 0; i < windows; ++i) {
    traces += static_cast<double>(scenario.order[i].size());
    Timed(spans, "ingest", i, [&] { IngestWindow(harness, scenario, i, replay); });
    Timed(spans, "fold", i, [&] { return replay.Fold(from + i + 1); });
    if ((i + 1) % kReplayCheckEvery != 0 && i + 1 != windows) {
      continue;
    }
    const deeprest::MetricsStore actuals =
        Timed(spans, "metrics_copy", i, [&] { return replay.MetricsCopy(); });
    const auto series = replay.FeatureSlice(from, from + i + 1);
    const auto estimates = Timed(spans, "forward_check", i,
                                 [&] { return model.EstimateFromFeaturesBatch({&series}); });
    const auto quality = deeprest::QualityScores(replay.QualitySlice(from, from + i + 1));
    Timed(spans, "detect", i, [&] {
      return checker.Detect(estimates.front(), actuals, from, from + i + 1, quality);
    });
  }
  auto& m = report.per_layer;
  SetMetric(m, "learn.train_s", setup.train_s);
  SetMetric(m, "sim.telemetry_s", setup.sim_s);
  SetMetric(m, "ingest.us_per_trace", spans.TotalMs("ingest") * 1000.0 / traces);
  SetMetric(m, "ingest.fold_ms", spans.MeanMs("fold"));
  SetMetric(m, "ingest.metrics_copy_ms", spans.MeanMs("metrics_copy"));
  SetMetric(m, "forward.ms_per_check", spans.MeanMs("forward_check"));
  SetMetric(m, "sanity.detect_ms", spans.MeanMs("detect"));
  SetMetric(m, "sanity.false_alarms", static_cast<double>(first_pass.false_alarms));
  SetMetric(m, "sanity.missed", static_cast<double>(first_pass.missed));
  SetMetric(m, "service.batches", static_cast<double>(counters.batches_dispatched));
  SetMetric(m, "service.mean_batch", counters.mean_batch_size);
  SetMetric(m, "traced.ops_per_s", static_cast<double>(latencies.size()) / measured_s);
  SetMetric(m, "traced.latency_p50_ms", Quantile(latencies, 0.5));
  return report;
}

}  // namespace e2e
