// Correctness checks of the benchmark's outputs. Each check compares a
// result against an independent computation or a required property and
// returns an empty string when it holds, else a description of the first
// mismatch. RunNegativeTests perturbs known-good inputs and demands that
// every check flags them, so no check can pass vacuously.
#ifndef E2EBENCH_SRC_CHECKS_H_
#define E2EBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/sanity.h"

namespace e2e {

// Estimates must match the oracle bit for bit when `exact`, else within the
// end-to-end numerics envelope (relative 1e-3 of the larger magnitude,
// floored at 1e-6) that covers the SIMD rung's reassociated reductions.
std::string CompareEstimates(const deeprest::EstimateMap& got,
                             const deeprest::EstimateMap& want, bool exact);

// True when the process runs today's default kernels (tiled, fp32), under
// which batch-major serving is bit-identical to the reference oracle.
bool DefaultKernels(const deeprest::DeepRestEstimator& model);

// Feature series must be equal element for element.
std::string CompareFeatures(const std::vector<std::vector<float>>& got,
                            const std::vector<std::vector<float>>& want);

// One live sanity verdict over windows [0, sealed) of the live phase (event
// windows are relative to the same origin), judged against the injected
// attack [attack_from, attack_to). A false alarm is an event that overlaps
// no attack window; a miss is a verdict that does not report the attack once
// min_event_windows of it are sealed.
struct VerdictJudgement {
  bool false_alarm = false;
  bool missed = false;
  bool ok() const { return !false_alarm && !missed; }
};
VerdictJudgement JudgeVerdict(const std::vector<deeprest::AnomalyEvent>& events, size_t sealed,
                              size_t attack_from, size_t attack_to,
                              size_t min_event_windows);

// The final verdict over the whole live phase: exactly one event, which
// overlaps the attack and names the attacked component first.
std::string CheckFinalVerdict(const std::vector<deeprest::AnomalyEvent>& events,
                              size_t attack_from, size_t attack_to,
                              const std::string& attacked_component);

// Order-sensitive FNV-1a digest of an estimate map's bits. Stream steps are
// recorded as digests so long streams can be checked against one unbroken
// pass without keeping every step's estimates.
uint64_t EstimateDigest(const deeprest::EstimateMap& estimates);
// Digest of window `t` of a multi-window estimate, equal to EstimateDigest of
// the one-window estimate that a resumed step over that window returns.
uint64_t EstimateDigestAt(const deeprest::EstimateMap& estimates, size_t t);

// Stream steps (digests, in step order) must equal the windows of one
// unbroken pass over the same features.
std::string CompareStreamSteps(const std::vector<uint64_t>& step_digests,
                               const deeprest::EstimateMap& unbroken);

// Upper ends of the DeepRest MAPE bands that EXPERIMENTS.md reports for the
// Fig. 12 query (CPU 5.9-16.2%, memory 2.3-10.0%).
inline constexpr double kCpuMapeBandPct = 16.2;
inline constexpr double kMemoryMapeBandPct = 10.0;
// Each MAPE in percent; flags the first above its band's upper end (bands
// are quoted to 0.1 points, so the comparison allows half a step).
std::string CheckMapeBand(const std::vector<double>& mape_pct, double band_pct,
                          const std::string& what);

// Perturbs a known-good sample of every check's input and returns the
// checks that failed to flag it (empty when every check bites). `estimate`
// must be a non-empty estimate map, `features` a non-empty series.
std::vector<std::string> RunNegativeTests(const deeprest::EstimateMap& estimate,
                                          const std::vector<std::vector<float>>& features);

}  // namespace e2e

#endif  // E2EBENCH_SRC_CHECKS_H_
