#ifndef SCHEMBLE_PERFBENCH_CHECKS_H_
#define SCHEMBLE_PERFBENCH_CHECKS_H_

// Output checks every benchmark run applies before it prints a result.
// Each states a property the serving method must have, not a copy of one
// run's output, and returns an empty string on success or what is wrong.

#include <cstdint>
#include <string>
#include <vector>

#include "serving/metrics.h"

namespace perfbench {

/// `total` equals the trace size, `subset_size_counts` sums to `total`, and
/// `subset_size_counts[0] == total - processed`.
std::string CheckConservation(const schemble::ServingMetrics& m,
                              int64_t trace_size);

/// 0 < accuracy <= processed / total: a missed query scores 0 and a
/// processed one at most 1.
std::string CheckAccuracyBound(const schemble::ServingMetrics& m);

/// Every processed latency is at most the relative deadline (rejection
/// mode: nothing finishing late may be credited).
std::string CheckLatencyWithinDeadline(const schemble::ServingMetrics& m,
                                       double deadline_ms);

/// Two replays of one trace gave bit-identical metrics.
std::string CheckIdentical(const schemble::ServingMetrics& a,
                           const schemble::ServingMetrics& b);

/// The method's accuracy exceeds the baseline's on the same trace.
std::string CheckBeatsBaseline(double method_accuracy,
                               double baseline_accuracy);

/// A replay with every query run on all `num_models` models and aggregated
/// by the reference weighted average reproduces the full ensemble exactly.
std::string CheckFullEnsemble(const schemble::ServingMetrics& m,
                              int64_t trace_size, int num_models);

/// The simulator and the runtime processed the same queries with the same
/// accuracy.
std::string CheckAgreement(const schemble::ServingMetrics& simulator,
                           const schemble::ServingMetrics& runtime);

/// Feeds each check a doctored copy of `real` (a replay that passed them)
/// and returns one message per check that wrongly accepted its copy.
std::vector<std::string> RunNegativeControls(
    const schemble::ServingMetrics& real, int64_t trace_size,
    double deadline_ms, int num_models);

}  // namespace perfbench

#endif  // SCHEMBLE_PERFBENCH_CHECKS_H_
