#include "src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "src/nn/matrix.h"

namespace e2e {

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool Close(double got, double want) {
  const double scale = std::max({std::fabs(got), std::fabs(want), 1e-3});
  return std::fabs(got - want) <= 1e-3 * scale;
}

std::string Describe(const deeprest::MetricKey& key) {
  return key.component + "/" + deeprest::ResourceKindName(key.resource);
}

std::string CompareSeries(const std::string& what, const std::vector<double>& got,
                          const std::vector<double>& want, bool exact) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " windows, expected " +
           std::to_string(want.size());
  }
  for (size_t t = 0; t < got.size(); ++t) {
    if (exact ? !SameBits(got[t], want[t]) : !Close(got[t], want[t])) {
      std::ostringstream os;
      os.precision(17);
      os << what << " window " << t << ": " << got[t] << " vs oracle " << want[t];
      return os.str();
    }
  }
  return "";
}

void Mix(uint64_t& hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
}

// Digest of window `t` of every series, or of every window when `all`.
uint64_t Digest(const deeprest::EstimateMap& estimates, bool all, size_t t) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [key, estimate] : estimates) {
    Mix(hash, key.component.data(), key.component.size());
    const int resource = static_cast<int>(key.resource);
    Mix(hash, &resource, sizeof(resource));
    for (const std::vector<double>* series :
         {&estimate.expected, &estimate.lower, &estimate.upper}) {
      if (all) {
        Mix(hash, series->data(), series->size() * sizeof(double));
      } else if (t < series->size()) {
        Mix(hash, &(*series)[t], sizeof(double));
      }
    }
  }
  return hash;
}

bool Overlaps(const deeprest::AnomalyEvent& event, size_t from, size_t to) {
  return event.start_window < to && from < event.end_window;
}

}  // namespace

std::string CompareEstimates(const deeprest::EstimateMap& got,
                             const deeprest::EstimateMap& want, bool exact) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " resources estimated, oracle has " +
           std::to_string(want.size());
  }
  for (const auto& [key, oracle] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      return "missing estimate for " + Describe(key);
    }
    for (const auto& [name, g, w] :
         {std::tuple{"expected", &it->second.expected, &oracle.expected},
          std::tuple{"lower", &it->second.lower, &oracle.lower},
          std::tuple{"upper", &it->second.upper, &oracle.upper}}) {
      const std::string problem =
          CompareSeries(Describe(key) + " " + name, *g, *w, exact);
      if (!problem.empty()) {
        return problem;
      }
    }
  }
  return "";
}

bool DefaultKernels(const deeprest::DeepRestEstimator& model) {
  return deeprest::GetKernelMode() == deeprest::KernelMode::kTiled &&
         !model.quantized_inference();
}

std::string CompareFeatures(const std::vector<std::vector<float>>& got,
                            const std::vector<std::vector<float>>& want) {
  if (got.size() != want.size()) {
    return "feature series has " + std::to_string(got.size()) + " windows, expected " +
           std::to_string(want.size());
  }
  for (size_t t = 0; t < got.size(); ++t) {
    if (got[t] != want[t]) {
      return "feature vector of window " + std::to_string(t) +
             " differs from ExtractSeries over the same traces";
    }
  }
  return "";
}

VerdictJudgement JudgeVerdict(const std::vector<deeprest::AnomalyEvent>& events, size_t sealed,
                              size_t attack_from, size_t attack_to,
                              size_t min_event_windows) {
  VerdictJudgement judgement;
  bool reported = false;
  for (const deeprest::AnomalyEvent& event : events) {
    if (Overlaps(event, attack_from, attack_to)) {
      reported = true;
    } else {
      judgement.false_alarm = true;
    }
  }
  const size_t attack_sealed =
      sealed > attack_from ? std::min(sealed, attack_to) - attack_from : 0;
  judgement.missed = attack_sealed >= min_event_windows && !reported;
  return judgement;
}

std::string CheckFinalVerdict(const std::vector<deeprest::AnomalyEvent>& events,
                              size_t attack_from, size_t attack_to,
                              const std::string& attacked_component) {
  if (events.size() != 1) {
    return "final verdict reports " + std::to_string(events.size()) +
           " events, expected exactly one";
  }
  const deeprest::AnomalyEvent& event = events.front();
  if (!Overlaps(event, attack_from, attack_to)) {
    return "final verdict's event [" + std::to_string(event.start_window) + ", " +
           std::to_string(event.end_window) + ") misses the attack";
  }
  if (event.deviations.empty() ||
      event.deviations.front().key.component != attacked_component) {
    return "final verdict's top deviation is not " + attacked_component;
  }
  return "";
}

uint64_t EstimateDigest(const deeprest::EstimateMap& estimates) {
  return Digest(estimates, true, 0);
}

uint64_t EstimateDigestAt(const deeprest::EstimateMap& estimates, size_t t) {
  return Digest(estimates, false, t);
}

std::string CompareStreamSteps(const std::vector<uint64_t>& step_digests,
                               const deeprest::EstimateMap& unbroken) {
  for (size_t t = 0; t < step_digests.size(); ++t) {
    if (step_digests[t] != EstimateDigestAt(unbroken, t)) {
      return "stream step " + std::to_string(t) +
             " differs from the unbroken uncached pass";
    }
  }
  return "";
}

std::string CheckMapeBand(const std::vector<double>& mape_pct, double band_pct,
                          const std::string& what) {
  for (double mape : mape_pct) {
    if (!(mape <= band_pct + 0.05)) {
      std::ostringstream os;
      os << what << " MAPE " << mape << "% above the " << band_pct << "% band";
      return os.str();
    }
  }
  return "";
}

std::vector<std::string> RunNegativeTests(const deeprest::EstimateMap& estimate,
                                          const std::vector<std::vector<float>>& features) {
  std::vector<std::string> toothless;
  const auto expect = [&](bool flagged, const std::string& name) {
    if (!flagged) {
      toothless.push_back(name);
    }
  };

  // Estimates: identical passes; one ulp fails the exact check; 1% fails the
  // envelope.
  expect(CompareEstimates(estimate, estimate, true).empty(), "estimate: identical passes");
  deeprest::EstimateMap ulp = estimate;
  double& value = ulp.begin()->second.upper.back();
  value = std::nextafter(value, value + 1.0);
  expect(!CompareEstimates(ulp, estimate, true).empty(), "estimate: one-ulp change flagged");
  deeprest::EstimateMap scaled = estimate;
  scaled.rbegin()->second.expected.front() = scaled.rbegin()->second.expected.front() * 1.01 + 1.0;
  expect(!CompareEstimates(scaled, estimate, false).empty(), "estimate: 1% change flagged");
  deeprest::EstimateMap missing = estimate;
  missing.erase(missing.begin());
  expect(!CompareEstimates(missing, estimate, true).empty(), "estimate: missing key flagged");

  // Features: one element nudged.
  expect(CompareFeatures(features, features).empty(), "features: identical passes");
  std::vector<std::vector<float>> nudged = features;
  nudged.back().back() += 1.0f;
  expect(!CompareFeatures(nudged, features).empty(), "features: changed element flagged");
  nudged.pop_back();
  expect(!CompareFeatures(nudged, features).empty(), "features: missing window flagged");

  // Verdicts: attack at [100, 108), two windows needed to report.
  deeprest::AnomalyEvent attack_event;
  attack_event.start_window = 101;
  attack_event.end_window = 108;
  attack_event.deviations.push_back(
      {deeprest::MetricKey{"PostStorageMongoDB", deeprest::ResourceKind::kCpu}, 150.0});
  deeprest::AnomalyEvent spurious;
  spurious.start_window = 40;
  spurious.end_window = 44;
  spurious.deviations.push_back(
      {deeprest::MetricKey{"MediaMongoDB", deeprest::ResourceKind::kMemory}, 20.0});
  expect(JudgeVerdict({}, 60, 100, 108, 2).ok(), "verdict: quiet before the attack passes");
  expect(JudgeVerdict({}, 101, 100, 108, 2).ok(), "verdict: one sealed attack window passes");
  expect(JudgeVerdict({attack_event}, 120, 100, 108, 2).ok(), "verdict: reported attack passes");
  expect(JudgeVerdict({spurious}, 60, 100, 108, 2).false_alarm,
         "verdict: spurious event flagged as false alarm");
  expect(JudgeVerdict({}, 102, 100, 108, 2).missed, "verdict: unreported attack flagged");
  expect(JudgeVerdict({spurious, attack_event}, 120, 100, 108, 2).false_alarm,
         "verdict: spurious event beside the attack flagged");

  expect(CheckFinalVerdict({attack_event}, 100, 108, "PostStorageMongoDB").empty(),
         "final verdict: the attack alone passes");
  expect(!CheckFinalVerdict({spurious, attack_event}, 100, 108, "PostStorageMongoDB").empty(),
         "final verdict: extra event flagged");
  expect(!CheckFinalVerdict({spurious}, 100, 108, "PostStorageMongoDB").empty(),
         "final verdict: event off the attack flagged");
  expect(!CheckFinalVerdict({}, 100, 108, "PostStorageMongoDB").empty(),
         "final verdict: no event flagged");
  deeprest::AnomalyEvent wrong_top = attack_event;
  wrong_top.deviations.front().key.component = "MediaMongoDB";
  expect(!CheckFinalVerdict({wrong_top}, 100, 108, "PostStorageMongoDB").empty(),
         "final verdict: wrong top deviation flagged");

  // Stream steps: digests of each window of an unbroken pass pass; a
  // perturbed window or a reordered step is flagged.
  const size_t windows = estimate.begin()->second.expected.size();
  std::vector<uint64_t> steps;
  for (size_t t = 0; t < windows; ++t) {
    steps.push_back(EstimateDigestAt(estimate, t));
  }
  expect(CompareStreamSteps(steps, estimate).empty(), "stream: unbroken steps pass");
  deeprest::EstimateMap drifted = estimate;
  double& step_value = drifted.begin()->second.expected[windows - 1];
  step_value = std::nextafter(step_value, step_value - 1.0);
  expect(!CompareStreamSteps(steps, drifted).empty(), "stream: perturbed step flagged");
  if (windows > 1) {
    std::vector<uint64_t> swapped = steps;
    std::swap(swapped.front(), swapped.back());
    expect(!CompareStreamSteps(swapped, estimate).empty(), "stream: reordered steps flagged");
  }

  // MAPE bands.
  expect(CheckMapeBand({5.0, 16.2}, kCpuMapeBandPct, "cpu").empty(), "band: inside passes");
  expect(!CheckMapeBand({5.0, 16.4}, kCpuMapeBandPct, "cpu").empty(), "band: above flagged");
  expect(!CheckMapeBand({std::nan("")}, kCpuMapeBandPct, "cpu").empty(), "band: NaN flagged");
  return toothless;
}

}  // namespace e2e
