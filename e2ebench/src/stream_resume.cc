// Workload `stream_resume`: four clients advance many tenant streams by one
// window each through EstimationService::SubmitStreamFeatures. Clients own
// disjoint streams; stream popularity within a client is Zipf(1). The
// StateCache hot tier holds about a quarter of the stream states; the cold
// tier is the bit-exact disk slab, with slots sized to the model's state, in
// a per-run scratch directory. Short stateful requests make per-request
// overhead and the state cache dominate.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <latch>
#include <thread>

#include "src/checks.h"
#include "src/serve/estimation_service.h"
#include "src/serve/ingest_pipeline.h"
#include "src/serve/model_registry.h"
#include "src/serve/state_cache.h"
#include "src/workloads.h"

namespace e2e {

namespace {

using deeprest::EstimationService;
using deeprest::Rng;

constexpr size_t kClients = 4;
constexpr size_t kStreamsPerClient = 1024;
constexpr size_t kBudgetBytes = size_t{8} << 20;
// Per-client stream indices whose every step is verified: the most popular
// ones and a spread down the Zipf tail.
constexpr size_t kSampled[] = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1023};
constexpr size_t kReplaySteps = 256;
constexpr size_t kReplayAccesses = 20000;

using Window = std::vector<std::vector<float>>;

class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = total;
    }
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble() * cdf_.back();
    const size_t i = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                                         cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

deeprest::StateCacheConfig CacheConfig(deeprest::MemoryBudget* budget, size_t state_floats,
                                       const std::string& slab_path) {
  deeprest::StateCacheConfig config;
  // The `deeprest serve` split of one budget: half hot, a quarter cold.
  config.hot_bytes = kBudgetBytes / 2;
  config.cold_bytes = kBudgetBytes / 4;
  config.cold_tier = deeprest::ColdTier::kDisk;
  config.slab_path = slab_path;
  // Serialized state: {steps, model_version} then the raw hidden floats.
  config.slab_slot_payload_bytes = 2 * sizeof(uint64_t) + state_floats * sizeof(float);
  config.slab_slots = kClients * kStreamsPerClient;
  config.budget = budget;
  return config;
}

struct ClientLog {
  std::vector<double> latencies_ms;
  uint64_t failed = 0;
  uint64_t measured = 0;
  Clock::time_point last_done;
  size_t peak_budget_used = 0;
  std::vector<uint64_t> steps = std::vector<uint64_t>(kStreamsPerClient, 0);
  // Digest of every step of each sampled stream, in step order.
  std::vector<std::vector<uint64_t>> digests = std::vector<std::vector<uint64_t>>(kStreamsPerClient);
};

bool Sampled(size_t index) {
  return std::find(std::begin(kSampled), std::end(kSampled), index) != std::end(kSampled);
}

}  // namespace

Report RunStreamResume(const Options& opt, SpanLog& spans) {
  Report report;
  Setup setup = BuildSetup(/*harness_seed=*/1);
  deeprest::ExperimentHarness& harness = *setup.harness;
  const deeprest::DeepRestEstimator& model = *setup.model;
  const size_t state_floats = model.expert_count() * model.hidden_dim();
  const std::string scratch = opt.out_dir + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch);
  deeprest::MemoryBudget budget(kBudgetBytes);
  deeprest::StateCache cache(CacheConfig(&budget, state_floats, scratch + "/state.slab"));
  deeprest::ModelRegistry registry;
  registry.Publish(setup.model);
  deeprest::IngestPipeline pipeline(model.features());
  deeprest::EstimationServiceConfig service_config;
  service_config.stream_states = &cache;
  EstimationService service(registry, pipeline, service_config);
  const double setup_s = SecondsBetween(ProcessStart(), Clock::now());

  // Inputs: every stream walks the learning-phase feature series from its
  // own seeded offset.
  const Window pool =
      model.features().ExtractSeries(harness.traces(), 0, harness.learn_windows());
  std::vector<size_t> offset(kClients * kStreamsPerClient);
  {
    Rng rng(opt.seed * 2654435761ULL + 17);
    for (size_t& o : offset) {
      o = static_cast<size_t>(rng.NextBelow(pool.size()));
    }
  }
  const auto window_of = [&](size_t stream, uint64_t step) {
    return Window{pool[(offset[stream] + step) % pool.size()]};
  };
  const Zipf zipf(kStreamsPerClient);

  std::vector<ClientLog> logs(kClients);
  std::latch warmed(kClients + 1);
  std::latch go(1);
  const Clock::time_point warm_until = After(kWarmupSeconds);
  Clock::time_point deadline;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      Rng rng(opt.seed * 1000003 + c);
      const auto one = [&](bool measure) {
        const size_t index = zipf.Sample(rng);
        const size_t stream = c * kStreamsPerClient + index;
        Window features = window_of(stream, log.steps[index]);
        const Clock::time_point start = Clock::now();
        EstimationService::EstimateResult result =
            service.SubmitStreamFeatures(stream + 1, std::move(features)).get();
        const Clock::time_point end = Clock::now();
        log.peak_budget_used = std::max(log.peak_budget_used, budget.used());
        const bool ok = result.status == deeprest::RequestStatus::kOk && !result.estimates.empty();
        if (ok) {
          ++log.steps[index];
          if (Sampled(index)) {
            log.digests[index].push_back(EstimateDigest(result.estimates));
          }
        }
        if (!measure) {
          return;
        }
        log.last_done = end;
        ++log.measured;
        if (!ok) {
          ++log.failed;
          return;
        }
        log.latencies_ms.push_back(MillisBetween(start, end));
        spans.Record("request", c * 100000000 + log.measured, start, end);
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
  const deeprest::StateCacheCounters cache_before = cache.Counters();
  const deeprest::ServiceCounters service_before = service.Counters();
  const Clock::time_point t0 = Clock::now();
  deadline = After(opt.seconds);
  go.count_down();
  for (std::thread& client : clients) {
    client.join();
  }
  const double peak_rss_mb = PeakRssMb();
  const deeprest::StateCacheCounters cache_after = cache.Counters();
  const deeprest::ServiceCounters service_after = service.Counters();
  service.Stop();

  std::vector<double> latencies;
  Clock::time_point t_end = t0;
  size_t peak_budget_used = 0;
  for (const ClientLog& log : logs) {
    latencies.insert(latencies.end(), log.latencies_ms.begin(), log.latencies_ms.end());
    report.attempted += log.measured;
    report.failed += log.failed;
    t_end = std::max(t_end, log.last_done);
    peak_budget_used = std::max(peak_budget_used, log.peak_budget_used);
  }
  const double ops_per_s =
      static_cast<double>(latencies.size()) / std::max(1e-9, SecondsBetween(t0, t_end));
  AddEndToEnd(report, setup_s, ops_per_s, latencies, peak_rss_mb);

  // --- Checks (outside every timed interval) ---
  // Every step of the sampled streams against one unbroken uncached pass.
  std::vector<Window> series;
  std::vector<const std::vector<uint64_t>*> digests;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t index : kSampled) {
      const size_t stream = c * kStreamsPerClient + index;
      Window full;
      for (uint64_t step = 0; step < logs[c].steps[index]; ++step) {
        full.push_back(window_of(stream, step).front());
      }
      if (!full.empty()) {
        series.push_back(std::move(full));
        digests.push_back(&logs[c].digests[index]);
      }
    }
  }
  std::vector<const Window*> pointers;
  for (const Window& s : series) {
    pointers.push_back(&s);
  }
  const std::vector<deeprest::EstimateMap> unbroken = model.EstimateFromFeaturesBatch(pointers);
  size_t verified_steps = 0;
  for (size_t k = 0; k < series.size(); ++k) {
    verified_steps += digests[k]->size();
    const std::string problem = CompareStreamSteps(*digests[k], unbroken[k]);
    if (!problem.empty()) {
      report.Fail("stream_resume: " + problem);
      break;
    }
  }
  if (verified_steps == 0) {
    report.Fail("stream_resume: no stream step was verified");
  }
  if (peak_budget_used > budget.budget()) {
    report.Fail("MemoryBudget::used reached " + std::to_string(peak_budget_used) +
                " bytes, over the " + std::to_string(budget.budget()) + "-byte budget");
  }
  if (cache_after.drops != 0) {
    report.Fail("state cache dropped " + std::to_string(cache_after.drops) + " stream states");
  }
  if (!series.empty()) {
    for (const std::string& name : RunNegativeTests(unbroken.front(), series.front())) {
      report.Fail("negative test did not bite: " + name);
    }
  }
  std::printf("stream_resume: %zu sampled streams, %zu steps verified; %llu spills, %llu cold "
              "hits in the measured phase\n",
              series.size(), verified_steps,
              static_cast<unsigned long long>(cache_after.spills - cache_before.spills),
              static_cast<unsigned long long>(cache_after.cold_hits - cache_before.cold_hits));

  if (opt.trace) {
    // --- Traced replay, one thread ---
    report.per_layer = PerLayerTemplate();
    deeprest::DeepRestEstimator::StreamCursor cursor;
    for (size_t step = 0; step < kReplaySteps; ++step) {
      const Window features = window_of(0, step);
      Timed(spans, "forward_step", step,
            [&] { return model.EstimateFromFeaturesBatchResume({&features}, {&cursor}); });
    }
    {
      deeprest::MemoryBudget replay_budget(kBudgetBytes);
      deeprest::StateCache replay_cache(
          CacheConfig(&replay_budget, state_floats, scratch + "/replay.slab"));
      std::vector<Rng> rngs;
      for (size_t c = 0; c < kClients; ++c) {
        rngs.emplace_back(opt.seed * 1000003 + c);
      }
      for (size_t i = 0; i < kReplayAccesses; ++i) {
        const size_t c = i % kClients;
        const uint64_t key = c * kStreamsPerClient + zipf.Sample(rngs[c]) + 1;
        Timed(spans, "acquire", i, [&] {
          deeprest::StateCache::Lease lease = replay_cache.AcquireOrCreate(key);
          if (lease.state().hidden.empty()) {
            lease.state().hidden.assign(state_floats, 0.5f);
            lease.state().model_version = 1;
          }
          ++lease.state().steps;
        });
      }
    }
    auto& m = report.per_layer;
    SetMetric(m, "learn.train_s", setup.train_s);
    SetMetric(m, "sim.telemetry_s", setup.sim_s);
    SetMetric(m, "forward.us_per_step", spans.MeanMs("forward_step") * 1000.0);
    SetMetric(m, "state_cache.acquire_us", spans.MeanMs("acquire") * 1000.0);
    const double hot = static_cast<double>(cache_after.hot_hits - cache_before.hot_hits);
    const double cold = static_cast<double>(cache_after.cold_hits - cache_before.cold_hits);
    const double misses = static_cast<double>(cache_after.misses - cache_before.misses);
    SetMetric(m, "state_cache.hot_hit_ratio", hot / std::max(1.0, hot + cold + misses));
    SetMetric(m, "state_cache.cold_hits", cold);
    SetMetric(m, "state_cache.misses", misses);
    SetMetric(m, "state_cache.spills",
              static_cast<double>(cache_after.spills - cache_before.spills));
    SetMetric(m, "state_cache.drops", static_cast<double>(cache_after.drops));
    SetMetric(m, "budget.peak_mb", static_cast<double>(peak_budget_used) / (1 << 20));
    const double batches = static_cast<double>(service_after.batches_dispatched -
                                               service_before.batches_dispatched);
    SetMetric(m, "service.batches", batches);
    SetMetric(m, "service.mean_batch",
              batches > 0.0 ? static_cast<double>(service_after.requests_served -
                                                  service_before.requests_served) /
                                  batches
                            : 0.0);
    SetMetric(m, "traced.ops_per_s", ops_per_s);
    SetMetric(m, "traced.latency_p50_ms", Quantile(latencies, 0.5));
  }
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
  return report;
}

}  // namespace e2e
