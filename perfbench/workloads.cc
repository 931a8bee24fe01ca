#include "workloads.h"

#include "common/logging.h"
#include "common/rng.h"
#include "serving/server.h"
#include "tracing.h"
#include "workload/traffic.h"

namespace perfbench {
namespace {

using schemble::kMillisecond;
using schemble::kSecond;

schemble::QueryTrace Trace(const schemble::SyntheticTask& task,
                           const schemble::TrafficGenerator& traffic,
                           schemble::SimTime deadline,
                           schemble::SimTime duration, uint64_t seed) {
  schemble::TraceOptions options;
  options.seed = schemble::HashSeed("perfbench-trace", seed);
  return schemble::BuildTrace(task, traffic,
                              schemble::ConstantDeadline(deadline), duration,
                              options);
}

// A compressed Q&A day (Fig. 1a shape) peaking at ~1.5x the full
// ensemble's capacity; 2.5 s segments give ~2.8K queries.
schemble::QueryTrace BurstPlanningTrace(const schemble::SyntheticTask& task,
                                        uint64_t seed) {
  const auto traffic =
      schemble::DiurnalTraffic::QaDayShape(130.0, 2500 * kMillisecond);
  return Trace(task, traffic, 200 * kMillisecond, traffic.total_duration(),
               seed);
}

// One hour of Poisson traffic below capacity: ~126K queries.
schemble::QueryTrace SteadyStackingTrace(const schemble::SyntheticTask& task,
                                         uint64_t seed) {
  return Trace(task, schemble::PoissonTraffic(35.0), 100 * kMillisecond,
               3600 * kSecond, seed);
}

// The Q&A day at ~2x the simulator burst's peak over two domains: 5 s
// segments, 120 s of trace time, ~7.5K queries.
schemble::QueryTrace RuntimeBurstTrace(const schemble::SyntheticTask& task,
                                       uint64_t seed) {
  const auto traffic =
      schemble::DiurnalTraffic::QaDayShape(170.0, 5 * kSecond);
  return Trace(task, traffic, 100 * kMillisecond, traffic.total_duration(),
               seed);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w;
    {
      Workload burst{};
      burst.name = "des-burst-planning";
      burst.compare_original = true;
      burst.deadline = 200 * kMillisecond;
      burst.build_trace = &BurstPlanningTrace;
      w.push_back(burst);
    }
    {
      Workload steady{};
      steady.name = "des-steady-stacking";
      steady.stacking = true;
      steady.deadline = 100 * kMillisecond;
      steady.build_trace = &SteadyStackingTrace;
      w.push_back(steady);
    }
    {
      Workload runtime{};
      runtime.name = "runtime-burst-sharded";
      runtime.deployment.engine = Engine::kRuntime;
      runtime.deployment.executor_models = {0, 1, 2, 0, 1, 2};
      runtime.deployment.num_domains = 2;
      runtime.deployment.speedup = 20.0;
      runtime.compare_original = true;
      runtime.deadline = 100 * kMillisecond;
      runtime.build_trace = &RuntimeBurstTrace;
      w.push_back(runtime);
    }
    return w;
  }();
  return workloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) names.emplace_back(w.name);
  return names;
}

Replay RunReplay(const schemble::SyntheticTask& task,
                 const Deployment& deployment,
                 const std::vector<schemble::ServingPolicy*>& policies,
                 const schemble::QueryTrace& trace) {
  Replay replay;
  if (deployment.engine == Engine::kSimulator) {
    SCHEMBLE_CHECK_EQ(policies.size(), 1u);
    schemble::ServerOptions options;
    options.executor_models = deployment.executor_models;
    options.allow_rejection = deployment.allow_rejection;
    options.aggregator = deployment.aggregator;
    options.seed = deployment.seed;
    schemble::EnsembleServer server(task, policies[0], options);
    const double cpu_start = ProcessCpuSeconds();
    const int64_t start = NowNs();
    replay.metrics = server.Run(trace);
    replay.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    replay.cpu_s = ProcessCpuSeconds() - cpu_start;
    return replay;
  }
  schemble::ConcurrentServerOptions options;
  options.executor_models = deployment.executor_models;
  options.num_domains = deployment.num_domains;
  options.speedup = deployment.speedup;
  options.allow_rejection = deployment.allow_rejection;
  options.aggregator = deployment.aggregator;
  options.seed = deployment.seed;
  schemble::ConcurrentServer server(task, policies, options);
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start = NowNs();
  replay.metrics = server.Run(trace);
  replay.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  replay.cpu_s = ProcessCpuSeconds() - cpu_start;
  replay.lock = server.lock_stats();
  replay.sched = server.scheduler_stats();
  return replay;
}

}  // namespace perfbench
