// Workload `whatif` (the paper's mode 1, Figs. 13-16): four capacity-planner
// clients submit what-if queries through EstimationService::SubmitTraffic.
// Each query is one day (48 windows) of seeded hypothetical traffic at a
// varied user scale, API mix and diurnal shape; the service synthesizes
// traces, extracts features and runs the batch-major forward pass.
#include <atomic>
#include <cmath>
#include <latch>
#include <thread>

#include "src/checks.h"
#include "src/eval/metrics.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/workloads.h"

namespace e2e {

namespace {

using deeprest::EstimateMap;
using deeprest::EstimationService;
using deeprest::Rng;
using deeprest::TrafficSeries;

constexpr size_t kClients = 4;
constexpr size_t kPoolPerClient = 32;    // distinct traffic series per client
constexpr size_t kSampleEvery = 150;     // verify measured ops 0, 150, 300, ...
constexpr size_t kMaxSamplesPerClient = 4;
constexpr size_t kReplayPerClient = 4;   // traced replay: 16 queries in all

// Query q of a client's pool. User scale, shape and API mix are stratified
// over the pool (scale strata 0.5x-3x, jittered within the stratum by the
// seed; shapes two-peak / flat / two-peak / single-peak in turn; API q mod
// 11 boosted, the others jittered), so every seed offers the same mix of
// work while the queries themselves differ.
TrafficSeries MakeQuery(const deeprest::ExperimentHarness& harness, size_t q, Rng& rng) {
  deeprest::TrafficSpec spec = harness.QuerySpec(1);
  spec.user_scale =
      0.5 + 2.5 * (static_cast<double>(q) + rng.NextDouble()) / static_cast<double>(kPoolPerClient);
  constexpr deeprest::ShapeKind kShapes[] = {
      deeprest::ShapeKind::kTwoPeak, deeprest::ShapeKind::kFlat, deeprest::ShapeKind::kTwoPeak,
      deeprest::ShapeKind::kSinglePeak};
  spec.shape = kShapes[q % 4];
  for (size_t api = 0; api < spec.mix.size(); ++api) {
    const bool boosted = api == q % spec.mix.size();
    spec.mix[api].weight *= std::exp(boosted ? rng.Uniform(0.4, 0.8) : rng.Uniform(-0.2, 0.2));
  }
  return deeprest::GenerateTraffic(spec, rng);
}

// Synthesizer seed of client c's op-th query: distinct per (run seed,
// client, op), so no two queries of a run sample the same traces.
uint64_t SynthSeed(uint64_t seed, size_t client, size_t op) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + client * 1000003ULL + op);
  return rng.NextU64();
}

struct Sample {
  size_t client = 0;
  size_t query = 0;
  uint64_t synth_seed = 0;
  EstimateMap result;
};

struct ClientLog {
  std::vector<double> latencies_ms;
  std::vector<Sample> samples;
  uint64_t failed = 0;
  Clock::time_point last_done;
};

std::vector<std::vector<float>> RebuildFeatures(const deeprest::DeepRestEstimator& model,
                                                const TrafficSeries& traffic, uint64_t seed) {
  Rng rng(seed);
  deeprest::TraceCollector synthetic;
  model.synthesizer().SynthesizeSeries(traffic, 0, rng, synthetic);
  return model.features().ExtractSeries(synthetic, 0, traffic.windows());
}

}  // namespace

Report RunWhatIf(const Options& opt, SpanLog& spans) {
  Report report;
  Setup setup = BuildSetup(/*harness_seed=*/1);
  deeprest::ExperimentHarness& harness = *setup.harness;
  const deeprest::DeepRestEstimator& model = *setup.model;
  deeprest::ModelRegistry registry;
  registry.Publish(setup.model);
  deeprest::IngestPipeline pipeline(model.features());
  EstimationService service(registry, pipeline);
  const double setup_s = SecondsBetween(ProcessStart(), Clock::now());

  std::vector<std::vector<TrafficSeries>> pools(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    Rng rng(opt.seed * 7919 + c + 1);
    for (size_t q = 0; q < kPoolPerClient; ++q) {
      pools[c].push_back(MakeQuery(harness, q, rng));
    }
  }

  std::vector<ClientLog> logs(kClients);
  std::latch warmed(kClients + 1);
  std::latch go(1);
  const Clock::time_point warm_until = After(kWarmupSeconds);
  Clock::time_point t0;
  Clock::time_point deadline;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      size_t op = 0;
      size_t measured = 0;
      const auto one = [&](bool measure) {
        const size_t query = op % kPoolPerClient;
        const uint64_t synth_seed = SynthSeed(opt.seed, c, op);
        TrafficSeries traffic = pools[c][query];
        const Clock::time_point start = Clock::now();
        EstimationService::EstimateResult result =
            service.SubmitTraffic(std::move(traffic), synth_seed).get();
        const Clock::time_point end = Clock::now();
        ++op;
        if (!measure) {
          return;
        }
        log.last_done = end;
        if (result.status != deeprest::RequestStatus::kOk || result.estimates.empty()) {
          ++log.failed;
        } else {
          log.latencies_ms.push_back(MillisBetween(start, end));
          spans.Record("request", c * 1000000 + op, start, end);
          if (measured % kSampleEvery == 0 && log.samples.size() < kMaxSamplesPerClient) {
            log.samples.push_back({c, query, synth_seed, std::move(result.estimates)});
          }
        }
        ++measured;
      };
      while (Clock::now() < warm_until) {
        one(false);
      }
      warmed.count_down();
      go.wait();
      while (Clock::now() < deadline) {
        one(true);
      }
    });
  }
  warmed.arrive_and_wait();
  const deeprest::ServiceCounters before = service.Counters();
  t0 = Clock::now();
  deadline = After(opt.seconds);
  go.count_down();
  for (std::thread& client : clients) {
    client.join();
  }
  const double peak_rss_mb = PeakRssMb();
  const deeprest::ServiceCounters after = service.Counters();

  std::vector<double> latencies;
  Clock::time_point t_end = t0;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latencies_ms.begin(), log.latencies_ms.end());
    report.failed += log.failed;
    t_end = std::max(t_end, log.last_done);
    report.attempted += log.latencies_ms.size() + log.failed;
  }
  const double ops_per_s =
      static_cast<double>(latencies.size()) / std::max(1e-9, SecondsBetween(t0, t_end));
  AddEndToEnd(report, setup_s, ops_per_s, latencies, peak_rss_mb);

  // --- Checks (outside every timed interval) ---
  // Sampled results against the sequential oracle, on features rebuilt from
  // the request's own seed.
  const bool exact = DefaultKernels(model);
  size_t verified = 0;
  for (const ClientLog& log : logs) {
    for (const Sample& sample : log.samples) {
      const auto features =
          RebuildFeatures(model, pools[sample.client][sample.query], sample.synth_seed);
      const std::string problem = CompareEstimates(
          sample.result, model.EstimateFromFeaturesReference(features), exact);
      if (!problem.empty()) {
        report.Fail("whatif result vs EstimateFromFeaturesReference: " + problem);
      }
      if (verified++ == 0) {
        for (const std::string& name : RunNegativeTests(sample.result, features)) {
          report.Fail("negative test did not bite: " + name);
        }
      }
    }
  }
  if (verified == 0) {
    report.Fail("whatif: no result was sampled for verification");
  }

  // Accuracy against the simulator's ground truth on the fixed Fig. 12
  // query (user scale 1.6), served through the same service.
  {
    deeprest::TrafficSpec spec = harness.QuerySpec(1);
    spec.user_scale = 1.6;
    Rng rng(23);
    const auto query = harness.RunQuery(deeprest::GenerateTraffic(spec, rng));
    const uint64_t seed = harness.config().seed * 31 + query.from;
    const auto result = service.SubmitTraffic(query.traffic, seed).get();
    std::vector<double> cpu;
    std::vector<double> memory;
    for (const char* component : {"FrontendNGINX", "ComposePostService",
                                  "UserTimelineService", "PostStorageMongoDB"}) {
      cpu.push_back(harness.QueryMape(result.estimates, query,
                                      {component, deeprest::ResourceKind::kCpu}));
      memory.push_back(harness.QueryMape(result.estimates, query,
                                         {component, deeprest::ResourceKind::kMemory}));
    }
    for (const std::string& problem :
         {CheckMapeBand(cpu, kCpuMapeBandPct, "Fig. 12 query CPU"),
          CheckMapeBand(memory, kMemoryMapeBandPct, "Fig. 12 query memory")}) {
      if (!problem.empty()) {
        report.Fail(problem);
      }
    }
  }
  service.Stop();

  if (!opt.trace) {
    return report;
  }
  // --- Traced replay: a fixed sample of queries through each layer ---
  report.per_layer = PerLayerTemplate();
  std::vector<std::vector<std::vector<float>>> replay_features;
  double traces = 0.0;
  uint64_t op = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t q = 0; q < kReplayPerClient; ++q, ++op) {
      Rng rng(SynthSeed(opt.seed, c, q));
      deeprest::TraceCollector synthetic;
      const TrafficSeries& traffic = pools[c][q];
      Timed(spans, "synth", op,
            [&] { model.synthesizer().SynthesizeSeries(traffic, 0, rng, synthetic); });
      traces += static_cast<double>(synthetic.total_traces());
      replay_features.push_back(Timed(spans, "extract", op, [&] {
        return model.features().ExtractSeries(synthetic, 0, traffic.windows());
      }));
      Timed(spans, "forward_b1", op,
            [&] { return model.EstimateFromFeaturesBatch({&replay_features.back()}); });
    }
  }
  for (size_t i = 0; i + 4 <= replay_features.size(); i += 4) {
    Timed(spans, "forward_b4", i, [&] {
      return model.EstimateFromFeaturesBatch({&replay_features[i], &replay_features[i + 1],
                                              &replay_features[i + 2],
                                              &replay_features[i + 3]});
    });
  }
  auto& m = report.per_layer;
  SetMetric(m, "learn.train_s", setup.train_s);
  SetMetric(m, "sim.telemetry_s", setup.sim_s);
  SetMetric(m, "synth.ms_per_query", spans.MeanMs("synth"));
  SetMetric(m, "synth.traces_per_query", traces / static_cast<double>(replay_features.size()));
  SetMetric(m, "extract.ms_per_query", spans.MeanMs("extract"));
  SetMetric(m, "forward.ms_per_query_b1", spans.MeanMs("forward_b1"));
  SetMetric(m, "forward.ms_per_query_b4", spans.MeanMs("forward_b4") / 4.0);
  const double batches =
      static_cast<double>(after.batches_dispatched - before.batches_dispatched);
  SetMetric(m, "service.batches", batches);
  SetMetric(m, "service.mean_batch",
            batches > 0.0
                ? static_cast<double>(after.requests_served - before.requests_served) / batches
                : 0.0);
  SetMetric(m, "traced.ops_per_s", ops_per_s);
  SetMetric(m, "traced.latency_p50_ms", Quantile(latencies, 0.5));
  return report;
}

}  // namespace e2e
