// The benchmark's workloads. Each builds its own cold set-up, drives the
// public serving API from at most four closed-loop client threads, checks
// the outputs, and fills in a Report (end-to-end metrics always; per-layer
// metrics from the traced replay when opt.trace is set).
#ifndef E2EBENCH_SRC_WORKLOADS_H_
#define E2EBENCH_SRC_WORKLOADS_H_

#include "src/common.h"

namespace e2e {

Report RunWhatIf(const Options& opt, SpanLog& spans);
Report RunLiveSanity(const Options& opt, SpanLog& spans);
Report RunStreamResume(const Options& opt, SpanLog& spans);

// Every per-layer metric the benchmark declares, zero-valued; a workload
// overwrites the ones its layers produce. A metric left at zero means the
// workload made no call into that layer.
std::vector<Metric> PerLayerTemplate();
void SetMetric(std::vector<Metric>& metrics, const std::string& name, double value);

}  // namespace e2e

#endif  // E2EBENCH_SRC_WORKLOADS_H_
