#ifndef SCHEMBLE_PERFBENCH_WORKLOADS_H_
#define SCHEMBLE_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads (open-loop trace replays on the text-matching
// task) and the one replay entry point that drives either serving engine.

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/policy.h"
#include "models/synthetic_task.h"
#include "runtime/concurrent_server.h"
#include "serving/metrics.h"
#include "workload/trace.h"

namespace perfbench {

enum class Engine { kSimulator, kRuntime };

/// Where and how a trace is served.
struct Deployment {
  Engine engine = Engine::kSimulator;
  /// One entry per executor (its model); empty = one per model.
  std::vector<int> executor_models;
  int num_domains = 1;
  /// Runtime only: virtual microseconds per real microsecond.
  double speedup = 1.0;
  bool allow_rejection = true;
  /// Null aggregates by the task's reference weighted average.
  const schemble::Aggregator* aggregator = nullptr;
  uint64_t seed = 97;
};

struct Workload {
  const char* name;
  /// The main replay's deployment; its aggregator is filled in at run time.
  Deployment deployment;
  /// The main replay aggregates by stacking (built as part of set-up).
  bool stacking = false;
  /// Burst workloads: Schemble must beat OriginalPolicy on the same trace.
  bool compare_original = false;
  schemble::SimTime deadline = 0;
  /// Generates the workload's trace from the benchmark seed.
  schemble::QueryTrace (*build_trace)(const schemble::SyntheticTask& task,
                                      uint64_t seed);
};

/// Null when no workload has that name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One serving call and what it measured.
struct Replay {
  schemble::ServingMetrics metrics;
  double wall_s = 0.0;
  /// Process CPU (user + sys) spent inside the serving call.
  double cpu_s = 0.0;
  /// Runtime engine only.
  schemble::ConcurrentServer::LockStatsSnapshot lock;
  schemble::ConcurrentServer::SchedulerStatsSnapshot sched;
};

/// Replays `trace` on `deployment` with one policy per scheduler domain
/// (the simulator takes exactly one).
Replay RunReplay(const schemble::SyntheticTask& task,
                 const Deployment& deployment,
                 const std::vector<schemble::ServingPolicy*>& policies,
                 const schemble::QueryTrace& trace);

}  // namespace perfbench

#endif  // SCHEMBLE_PERFBENCH_WORKLOADS_H_
