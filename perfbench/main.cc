// Schemble benchmark driver: builds the serving stack, replays one
// workload's trace through the public serving entry points for the
// requested number of seconds, checks the outputs, and prints one JSON
// line with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Normally started through run.py, which builds it:
//
//   python3 perfbench/run.py --workload des-burst-planning --seed 1
//       --seconds 10 --trace 0

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/original_policy.h"
#include "checks.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/discrepancy.h"
#include "core/discrepancy_predictor.h"
#include "core/profiling.h"
#include "models/task_factory.h"
#include "serving/pipeline.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

using schemble::ServingMetrics;
using schemble::ServingPolicy;

// Check replay: a trace prefix served by OriginalPolicy in force mode with
// deadlines no query can miss, on both engines.
constexpr size_t kCheckPrefix = 400;
constexpr double kCheckSpeedup = 50.0;
// Queries timed per aggregation path in the traced run.
constexpr size_t kAggregateSamples = 20000;
// Cold set-ups per untraced run: the run's own, then one in a fresh
// process after a main round, at most every --seconds / kSetupSamples.
constexpr int kSetupSamples = 8;

// Sink for the timed loops' results, so they cannot be optimized away.
double g_checksum = 0.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_dir;
  /// Only time the set-up and print setup_s (see ColdSetupInChild).
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--spans-dir") {
      args->spans_dir = value;
    } else if (flag == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t idx = static_cast<size_t>(pos);
  if (idx + 1 >= v.size()) return static_cast<double>(v.back());
  const double frac = pos - static_cast<double>(idx);
  return static_cast<double>(v[idx]) * (1.0 - frac) +
         static_cast<double>(v[idx + 1]) * frac;
}

/// Name, unit and value of one printed metric.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Collects check failures; the run is correct only if none occur.
class Verdict {
 public:
  void Expect(const std::string& context, const std::string& failure) {
    if (failure.empty()) return;
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", context.c_str(),
                 failure.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

 private:
  bool correct_ = true;
};

/// Counts the operations (trace queries) of every serving call and those
/// the server did not account for exactly once.
struct Operations {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(const ServingMetrics& m, int64_t trace_size) {
    attempted += trace_size;
    failed += std::llabs(trace_size - m.total);
  }
};

/// A policy per domain, optionally wrapped in timing decorators.
struct PolicySet {
  std::vector<std::unique_ptr<ServingPolicy>> owned;
  std::vector<std::unique_ptr<TimedPolicy>> timed;
  std::vector<ServingPolicy*> serving;

  /// Serves the owned policies directly, or through timing decorators
  /// that record their call spans into `recorder` (when not null).
  void Wrap(bool timed_calls, SpanRecorder* recorder, int64_t parent) {
    serving.clear();
    for (auto& policy : owned) {
      if (!timed_calls) {
        serving.push_back(policy.get());
      } else {
        timed.push_back(
            std::make_unique<TimedPolicy>(policy.get(), recorder, parent));
        serving.push_back(timed.back().get());
      }
    }
  }

  PolicyCallStats Stats() const {
    PolicyCallStats all;
    for (const auto& t : timed) {
      PolicyCallStats s = t->stats();
      all.arrival_ns.insert(all.arrival_ns.end(), s.arrival_ns.begin(),
                            s.arrival_ns.end());
      all.plan_ns.insert(all.plan_ns.end(), s.plan_ns.begin(),
                         s.plan_ns.end());
      all.plan_buffered += s.plan_buffered;
      all.plan_on_view += s.plan_on_view;
      all.wall_in_calls_ns += s.wall_in_calls_ns;
      all.thread_cpu_ns += s.thread_cpu_ns;
    }
    return all;
  }
};

PolicySet OriginalPolicies(int domains, SpanRecorder* recorder,
                           int64_t parent) {
  PolicySet set;
  for (int d = 0; d < domains; ++d) {
    set.owned.push_back(std::make_unique<schemble::OriginalPolicy>());
  }
  set.Wrap(recorder != nullptr, recorder, parent);
  return set;
}

/// Times one cold set-up of `workload` in a fresh process: `self` (this
/// program) in --setup-only mode, which prints its setup_s and exits. Returns
/// a negative value if that process failed. The caller waits for it.
double ColdSetupInChild(const std::string& self, const std::string& workload) {
  std::string command = "'";
  for (char c : self) {
    command += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  command += "' --workload " + workload +
             " --seed 0 --seconds 1 --trace 0 --setup-only 1";
  std::FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return -1.0;
  double seconds = -1.0;
  if (std::fscanf(child, "%lf", &seconds) != 1) seconds = -1.0;
  return pclose(child) == 0 ? seconds : -1.0;
}

/// Setup decomposed into its layer calls, in SchemblePipeline::Build's order
/// with default PipelineOptions (traced run only).
void DecomposeSetup(const schemble::SyntheticTask& task,
                    SpanRecorder* recorder, std::vector<Metric>* layer) {
  const schemble::PipelineOptions options;
  ScopedSpan root(recorder, "setup.decomposed", 0);
  auto step = [&](const char* name, auto&& fn) {
    ScopedSpan span(recorder, name, root.id());
    fn();
    return span.elapsed_s();
  };
  std::vector<schemble::Query> history;
  const double history_s = step("models.generate_history", [&] {
    history = task.GenerateDataset(
        options.history_size, options.history_difficulty,
        schemble::HashSeed("pipeline-history", options.seed));
  });
  std::optional<schemble::DiscrepancyScorer> scorer;
  std::vector<double> scores;
  const double fit_s = step("core.scorer_fit", [&] {
    auto fitted = schemble::DiscrepancyScorer::Fit(task, history);
    SCHEMBLE_CHECK(fitted.ok());
    scorer.emplace(std::move(fitted).value());
    scores = scorer->ScoreAll(history);
  });
  schemble::AccuracyProfile::Options profile_options;
  profile_options.bins = options.profile_bins;
  auto build_profile = [&](const std::vector<double>& s,
                           schemble::AccuracyProfile::Options o) {
    return step("core.profile_build", [&] {
      SCHEMBLE_CHECK(
          schemble::AccuracyProfile::Build(task, history, s, o).ok());
    });
  };
  double profile_s = build_profile(scores, profile_options);
  std::optional<schemble::DiscrepancyPredictor> predictor;
  const double train_s = step("core.predictor_train", [&] {
    auto trained = schemble::DiscrepancyPredictor::Train(task, history, scores,
                                                         options.predictor);
    SCHEMBLE_CHECK(trained.ok());
    predictor.emplace(std::move(trained).value());
  });
  std::vector<double> predicted;
  step("core.predict_history", [&] {
    for (const schemble::Query& q : history) {
      predicted.push_back(predictor->Predict(q));
    }
  });
  profile_s += build_profile(predicted, profile_options);
  schemble::AccuracyProfile::Options marginal = profile_options;
  marginal.bins = 1;
  profile_s += build_profile(scores, marginal);
  layer->push_back({"models.history_s", "s", history_s});
  layer->push_back({"core.scorer_fit_s", "s", fit_s});
  layer->push_back({"core.profile_build_s", "s", profile_s});
  layer->push_back({"core.predictor_train_s", "s", train_s});
}

/// Mean ns per call of `fn(i)` over i in [0, n).
template <typename Fn>
double NsPerCall(size_t n, Fn&& fn) {
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(NowNs() - start) / static_cast<double>(n);
}

/// What one measured round of the main replay produced.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double accuracy = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double miss_rate = 0.0;
  int64_t processed = 0;
  double charged_overhead_ms = 0.0;
  PolicyCallStats calls;
  schemble::ConcurrentServer::LockStatsSnapshot lock;
  schemble::ConcurrentServer::SchedulerStatsSnapshot sched;
};

/// Runtime-layer per-layer metrics of one ConcurrentServer call that took
/// `cpu_s` of process CPU, `calls.thread_cpu_ns` of it inside the policy.
std::vector<Metric> RuntimeLayerMetrics(
    double cpu_s, const PolicyCallStats& calls,
    const schemble::ConcurrentServer::LockStatsSnapshot& lock,
    const schemble::ConcurrentServer::SchedulerStatsSnapshot& s,
    int64_t queries) {
  const double self_cpu_s =
      cpu_s - static_cast<double>(calls.thread_cpu_ns) * 1e-9;
  std::vector<Metric> metrics = {
      {"runtime.self_cpu_us_per_query", "us",
       self_cpu_s * 1e6 / static_cast<double>(queries)},
      {"runtime.lock_acquisitions", "count",
       static_cast<double>(lock.acquisitions)},
      {"runtime.lock_held_ms", "ms", lock.held_ms},
  };
  const std::pair<const char*, int64_t> counts[] = {
      {"runtime.plans", s.plans},
      {"runtime.plan_commits", s.plan_commits},
      {"runtime.plans_invalidated", s.plans_invalidated},
      {"runtime.replans_skipped", s.replans_skipped},
      {"runtime.steals", s.steals},
      {"runtime.stolen", s.stolen},
      {"runtime.rebalances", s.rebalances},
      {"runtime.donated", s.donated},
  };
  for (const auto& [name, value] : counts) {
    metrics.push_back({name, "count", static_cast<double>(value)});
  }
  return metrics;
}

void PrintResult(bool correct, const Operations& ops,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args, const char* self, const Workload& w) {
  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  std::vector<Metric> layer;
  Verdict verdict;
  Operations ops;

  const schemble::SyntheticTask task = schemble::MakeTextMatchingTask();
  const int num_models = task.num_models();
  if (args.trace) DecomposeSetup(task, rec, &layer);

  // Set-up: the serving stack the workload uses. In the untraced run this
  // is the first work of the process, so it is timed cold.
  std::unique_ptr<schemble::SchemblePipeline> pipeline;
  std::optional<schemble::Aggregator> stacking;
  double aggregator_build_s = 0.0;
  auto build_stacking = [&](int64_t parent) {
    ScopedSpan span(rec, "core.aggregator_build", parent);
    schemble::AggregatorConfig config;
    config.kind = schemble::AggregationKind::kStacking;
    auto built =
        schemble::Aggregator::Build(task, pipeline->history(), config);
    SCHEMBLE_CHECK(built.ok()) << built.status().ToString();
    stacking.emplace(std::move(built).value());
    aggregator_build_s = span.elapsed_s();
  };
  double setup_s = 0.0;
  {
    ScopedSpan span(rec, "setup", 0);
    {
      ScopedSpan build(rec, "serving.pipeline_build", span.id());
      auto built =
          schemble::SchemblePipeline::Build(task, schemble::PipelineOptions{});
      SCHEMBLE_CHECK(built.ok()) << built.status().ToString();
      pipeline = std::move(built).value();
    }
    if (w.stacking) build_stacking(span.id());
    setup_s = span.elapsed_s();
  }
  if (args.setup_only) {
    std::printf("%.17g\n", setup_s);
    return 0;
  }
  // The check replay aggregates by stacking on every workload.
  if (!stacking) build_stacking(0);

  const schemble::QueryTrace trace = w.build_trace(task, args.seed);
  const int64_t n = trace.size();
  const double deadline_ms = schemble::SimTimeToMillis(w.deadline);
  Deployment deployment = w.deployment;
  deployment.seed = schemble::HashSeed("perfbench-server", args.seed);
  if (w.stacking) deployment.aggregator = &*stacking;
  const int domains = deployment.num_domains;

  // Main replay: whole rounds of the trace. Simulator rounds run until the
  // time is up, at least twice so their bit-identity can be checked. A
  // runtime round lasts the trace's duration divided by the speedup, so the
  // number that fills the time is fixed up front, not left to timing.
  const bool on_runtime = deployment.engine == Engine::kRuntime;
  // In rejection mode the runtime credits model outputs that finish after
  // the deadline (see README), so only simulator latencies are checked
  // against it.
  const bool check_latency = !on_runtime;
  const size_t planned_rounds =
      on_runtime ? static_cast<size_t>(std::max(
                       1.0, std::round(args.seconds * deployment.speedup /
                                       schemble::SimTimeToSeconds(
                                           trace.duration()))))
                 : 2;
  std::vector<Round> rounds;
  ServingMetrics first;
  double peak_rss_mb = 0.0;
  // The host runs slower in phases of seconds to tens of seconds, so the
  // cold set-up is sampled across the run and the fastest sample kept.
  std::vector<double> setup_samples = {setup_s};
  const int64_t measure_start = NowNs();
  int64_t last_setup_sample = measure_start;
  while (rounds.size() < planned_rounds ||
         (!on_runtime && static_cast<double>(NowNs() - measure_start) *
                                 1e-9 <
                             args.seconds)) {
    ScopedSpan span(rec, "serving.run", 0);
    PolicySet policies;
    std::vector<schemble::SchemblePolicy*> schemble_policies;
    for (int d = 0; d < domains; ++d) {
      auto policy = pipeline->MakeSchemble(schemble::SchembleConfig{});
      schemble_policies.push_back(policy.get());
      policies.owned.push_back(std::move(policy));
    }
    // Call spans of the first round only: later rounds repeat the trace,
    // and their timings still enter the per-layer statistics.
    policies.Wrap(args.trace, rounds.empty() ? rec : nullptr, span.id());
    Replay r = RunReplay(task, deployment, policies.serving, trace);
    const std::string context = std::string(w.name) + " round " +
                                std::to_string(rounds.size() + 1);
    verdict.Expect(context, CheckConservation(r.metrics, n));
    verdict.Expect(context, CheckAccuracyBound(r.metrics));
    if (check_latency) {
      verdict.Expect(context,
                     CheckLatencyWithinDeadline(r.metrics, deadline_ms));
    }
    ops.Add(r.metrics, n);

    Round round;
    round.wall_s = r.wall_s;
    round.cpu_s = r.cpu_s;
    round.accuracy = r.metrics.accuracy();
    round.p50_ms = r.metrics.latency_ms.Quantile(0.50);
    round.p99_ms = r.metrics.latency_ms.Quantile(0.99);
    round.miss_rate = r.metrics.deadline_miss_rate();
    round.processed = r.metrics.processed;
    for (const auto* p : schemble_policies) {
      round.charged_overhead_ms +=
          schemble::SimTimeToMillis(p->total_overhead_us());
    }
    round.lock = r.lock;
    round.sched = r.sched;
    if (args.trace) {
      round.calls = policies.Stats();
      if (on_runtime) {
        verdict.Expect(context, round.calls.plan_on_view == r.sched.plans
                                    ? ""
                                    : "decorator PlanOnView count " +
                                          std::to_string(
                                              round.calls.plan_on_view) +
                                          " != scheduler_stats().plans " +
                                          std::to_string(r.sched.plans));
      }
    }
    std::fprintf(stderr, "round %zu: wall %.3f s, cpu %.3f s\n",
                 rounds.size() + 1, round.wall_s, round.cpu_s);
    rounds.push_back(std::move(round));
    if (rounds.size() == 1) {
      // Memory of serving the trace once. Later rounds repeat it (on the
      // runtime with fresh threads, whose malloc arenas a long-running
      // server would not churn), and the replays below are the benchmark's.
      peak_rss_mb = PeakRssMb();
      first = std::move(r.metrics);
    } else if (!on_runtime) {
      verdict.Expect(context, CheckIdentical(first, r.metrics));
    }
    if (!args.trace && setup_samples.size() < kSetupSamples &&
        static_cast<double>(NowNs() - last_setup_sample) * 1e-9 >=
            args.seconds / kSetupSamples) {
      const double sample = ColdSetupInChild(self, w.name);
      verdict.Expect(context, sample > 0.0 ? "" : "cold set-up process failed");
      if (sample > 0.0) setup_samples.push_back(sample);
      last_setup_sample = NowNs();
    }
  }

  // The paper's Fig. 6 claim on the burst workloads: Schemble beats the
  // unmodified ensemble on the same trace and deployment.
  double original_accuracy = 0.0;
  auto median_of = [&rounds](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return Median(std::move(v));
  };
  if (w.compare_original) {
    PolicySet original = OriginalPolicies(domains, nullptr, 0);
    Replay r = RunReplay(task, deployment, original.serving, trace);
    verdict.Expect("original", CheckConservation(r.metrics, n));
    verdict.Expect("original", CheckAccuracyBound(r.metrics));
    if (check_latency) {
      verdict.Expect("original",
                     CheckLatencyWithinDeadline(r.metrics, deadline_ms));
    }
    ops.Add(r.metrics, n);
    original_accuracy = r.metrics.accuracy();
    verdict.Expect("schemble vs original",
                   CheckBeatsBaseline(median_of(&Round::accuracy),
                                      original_accuracy));
  }

  // Check replay on a prefix: every query runs on all models.
  schemble::QueryTrace prefix;
  prefix.items.assign(
      trace.items.begin(),
      trace.items.begin() + static_cast<int64_t>(std::min(
                                kCheckPrefix, trace.items.size())));
  for (schemble::TracedQuery& tq : prefix.items) {
    tq.deadline = tq.arrival_time + 1000 * schemble::kSecond;
  }
  const int64_t np = prefix.size();
  Deployment check_sim;
  check_sim.executor_models = deployment.executor_models;
  check_sim.allow_rejection = false;
  check_sim.seed = deployment.seed;
  Deployment check_rt = deployment;
  check_rt.engine = Engine::kRuntime;
  check_rt.speedup = kCheckSpeedup;
  check_rt.allow_rejection = false;
  check_rt.aggregator = &*stacking;
  {
    PolicySet original = OriginalPolicies(1, nullptr, 0);
    Replay r = RunReplay(task, check_sim, original.serving, prefix);
    verdict.Expect("check replay", CheckConservation(r.metrics, np));
    verdict.Expect("check replay",
                   CheckFullEnsemble(r.metrics, np, num_models));
    ops.Add(r.metrics, np);
  }
  check_sim.aggregator = &*stacking;
  ScopedSpan sim_span(rec, "serving.run_check", 0);
  PolicySet sim_policies = OriginalPolicies(1, rec, sim_span.id());
  const Replay check_sim_replay =
      RunReplay(task, check_sim, sim_policies.serving, prefix);
  ScopedSpan rt_span(rec, "runtime.run_check", 0);
  PolicySet rt_policies = OriginalPolicies(domains, rec, rt_span.id());
  const Replay check_rt_replay =
      RunReplay(task, check_rt, rt_policies.serving, prefix);
  for (const Replay* r : {&check_sim_replay, &check_rt_replay}) {
    verdict.Expect("check replay (stacking)",
                   CheckConservation(r->metrics, np));
    ops.Add(r->metrics, np);
  }
  verdict.Expect("simulator vs runtime",
                 CheckAgreement(check_sim_replay.metrics,
                                check_rt_replay.metrics));

  // Every check above must be able to fail.
  for (const std::string& accepted :
       RunNegativeControls(first, n, deadline_ms, num_models)) {
    verdict.Expect("negative control", accepted);
  }

  // Cost metrics come from the least-disturbed round. Every round serves
  // the same trace on the same deployment (the simulator's rounds are
  // bit-identical), so their differences are host noise, which on a shared
  // host comes in phases of seconds that a median does not remove.
  double best_wall = rounds.front().wall_s, best_cpu = rounds.front().cpu_s;
  for (const Round& r : rounds) {
    best_wall = std::min(best_wall, r.wall_s);
    best_cpu = std::min(best_cpu, r.cpu_s);
  }
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s",
       *std::min_element(setup_samples.begin(), setup_samples.end())},
      {"replay_qps", "queries/s", static_cast<double>(n) / best_wall},
      {"cpu_us_per_query", "us", best_cpu * 1e6 / static_cast<double>(n)},
      {"accuracy", "fraction", median_of(&Round::accuracy)},
      {"latency_p50_ms", "ms", median_of(&Round::p50_ms)},
      {"latency_p99_ms", "ms", median_of(&Round::p99_ms)},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
  int64_t late = 0;
  for (double latency : first.latency_ms.samples()) {
    late += latency > deadline_ms ? 1 : 0;
  }
  std::fprintf(stderr,
               "%s seed=%llu traced=%d queries=%lld rounds=%zu "
               "processed=%lld late_processed=%lld deadline_miss_rate=%.4f "
               "original_accuracy=%.4f setup_samples=%zu",
               w.name, static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, static_cast<long long>(n), rounds.size(),
               static_cast<long long>(rounds.front().processed),
               static_cast<long long>(late), rounds.front().miss_rate,
               original_accuracy, setup_samples.size());
  for (const Metric& m : end_to_end) {
    std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
  }
  std::fprintf(stderr, "\n");
  if (!args.trace) {
    PrintResult(verdict.correct(), ops, end_to_end);
    return 0;
  }

  // Per-layer metrics (traced run).
  layer.push_back({"core.aggregator_build_s", "s", aggregator_build_s});
  const schemble::DiscrepancyPredictor& predictor = pipeline->predictor();
  double checksum = 0.0;
  layer.push_back({"core.predict_ns", "ns",
                   NsPerCall(trace.items.size(), [&](size_t i) {
                     checksum += predictor.Predict(trace.items[i].query);
                   })});
  PolicyCallStats calls;
  std::vector<double> per_round_arrivals, per_round_plans;
  // Wall time inside planning calls over the serving calls' wall time
  // (on the runtime, summed over the domains' scheduler threads).
  double plan_ns = 0.0, serve_s = 0.0;
  for (const Round& r : rounds) {
    for (int64_t ns : r.calls.plan_ns) plan_ns += static_cast<double>(ns);
    serve_s += r.wall_s;
    calls.arrival_ns.insert(calls.arrival_ns.end(), r.calls.arrival_ns.begin(),
                            r.calls.arrival_ns.end());
    calls.plan_ns.insert(calls.plan_ns.end(), r.calls.plan_ns.begin(),
                         r.calls.plan_ns.end());
    calls.plan_buffered += r.calls.plan_buffered;
    per_round_arrivals.push_back(
        static_cast<double>(r.calls.arrival_ns.size()));
    per_round_plans.push_back(static_cast<double>(r.calls.plan_ns.size()));
  }
  layer.push_back(
      {"core.arrival_ns_p50", "ns", Quantile(calls.arrival_ns, 0.50)});
  layer.push_back(
      {"core.arrival_ns_p99", "ns", Quantile(calls.arrival_ns, 0.99)});
  layer.push_back({"core.arrivals", "count", Median(per_round_arrivals)});
  layer.push_back(
      {"core.plan_us_p50", "us", Quantile(calls.plan_ns, 0.50) * 1e-3});
  layer.push_back(
      {"core.plan_us_p99", "us", Quantile(calls.plan_ns, 0.99) * 1e-3});
  layer.push_back({"core.plan_rounds", "count", Median(per_round_plans)});
  layer.push_back({"core.plan_buffer_mean", "queries",
                   calls.plan_ns.empty()
                       ? 0.0
                       : static_cast<double>(calls.plan_buffered) /
                             static_cast<double>(calls.plan_ns.size())});
  layer.push_back({"core.plan_share", "fraction", plan_ns * 1e-9 / serve_s});
  layer.push_back({"core.charged_overhead_ms", "ms",
                   median_of(&Round::charged_overhead_ms)});

  schemble::Aggregator::Workspace ws;
  std::vector<double> out;
  const size_t agg_n = std::min(kAggregateSamples, trace.items.size());
  const schemble::SubsetMask full = schemble::FullMask(num_models);
  layer.push_back({"core.aggregate_full_ns", "ns",
                   NsPerCall(agg_n, [&](size_t i) {
                     stacking->AggregateInto(trace.items[i].query, full, &ws,
                                             &out);
                     checksum += out[0];
                   })});
  // Strict subsets in rotation: every one needs KNN fill.
  layer.push_back({"core.aggregate_partial_ns", "ns",
                   NsPerCall(agg_n, [&](size_t i) {
                     const auto mask =
                         static_cast<schemble::SubsetMask>(1 + i % (full - 1));
                     stacking->AggregateInto(trace.items[i].query, mask, &ws,
                                             &out);
                     checksum += out[0];
                   })});

  // The serving layer's own time (serving call minus policy calls) and the
  // runtime layer's figures, as medians over the main rounds of the engine
  // the workload uses. The result names every per-layer metric on every
  // workload, so for the other engine the check replay's call stands in.
  auto as_round = [](const Replay& r, const PolicySet& policies) {
    Round round;
    round.wall_s = r.wall_s;
    round.cpu_s = r.cpu_s;
    round.calls = policies.Stats();
    round.lock = r.lock;
    round.sched = r.sched;
    return round;
  };
  const std::vector<Round> sim_rounds =
      on_runtime ? std::vector<Round>{as_round(check_sim_replay, sim_policies)}
                 : rounds;
  const std::vector<Round> rt_rounds =
      on_runtime ? rounds
                 : std::vector<Round>{as_round(check_rt_replay, rt_policies)};
  std::vector<double> self_s;
  for (const Round& r : sim_rounds) {
    self_s.push_back(r.wall_s -
                     static_cast<double>(r.calls.wall_in_calls_ns) * 1e-9);
  }
  layer.push_back({"serving.self_s", "s", Median(std::move(self_s))});
  std::vector<std::vector<Metric>> per_round;
  for (const Round& r : rt_rounds) {
    per_round.push_back(RuntimeLayerMetrics(r.cpu_s, r.calls, r.lock, r.sched,
                                            on_runtime ? n : np));
  }
  for (size_t i = 0; i < per_round.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& metrics : per_round) values.push_back(metrics[i].value);
    layer.push_back({per_round.front()[i].name, per_round.front()[i].unit,
                     Median(std::move(values))});
  }
  g_checksum = checksum;

  if (!args.spans_dir.empty()) {
    const std::string path =
        args.spans_dir + "/" + std::string(w.name) + ".csv";
    if (!recorder.WriteCsv(path)) {
      std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu spans to %s\n", recorder.size(),
                 path.c_str());
  }
  PrintResult(verdict.correct(), ops, layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans-dir DIR] [--setup-only 1]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::string names;
    for (const std::string& name : perfbench::WorkloadNames()) {
      names += " " + name;
    }
    std::fprintf(stderr, "unknown workload '%s'; choose one of:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  return perfbench::Run(args, argv[0], *workload);
}
