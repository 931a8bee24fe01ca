#ifndef SCHEMBLE_PERFBENCH_TRACING_H_
#define SCHEMBLE_PERFBENCH_TRACING_H_

// Span recording for the benchmark's traced run, and the timing decorator
// that wraps a ServingPolicy from outside. Everything here lives in the
// benchmark: the serving libraries are timed only at the calls the
// benchmark makes into them, and the untraced run uses none of it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/policy.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNs();
/// CPU time (user + sys) of the whole process so far, from getrusage.
double ProcessCpuSeconds();
/// CPU time of the calling thread so far.
int64_t ThreadCpuNs();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// One timed interval. `parent` is the id of the span that caused it (0 for
/// a root); `query_id` is the trace query it belongs to, or -1.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t query_id = -1;
};

/// In-memory span store shared by every thread of a traced run; written out
/// once, when the run ends.
class SpanRecorder {
 public:
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& span);
  /// Writes every span as CSV (one row per span, ordered by start time).
  bool WriteCsv(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int64_t> next_id_{1};
};

/// Times one benchmark-level step; records a span on destruction when a
/// recorder is given.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  double elapsed_s() const {
    return static_cast<double>(NowNs() - span_.start_ns) * 1e-9;
  }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

/// Per-call timings gathered by one TimedPolicy during one serving call.
struct PolicyCallStats {
  std::vector<int64_t> arrival_ns;
  std::vector<int64_t> plan_ns;
  int64_t plan_buffered = 0;     // sum of buffered queries over plans
  int64_t plan_on_view = 0;      // PlanOnView calls (runtime path)
  int64_t wall_in_calls_ns = 0;  // wall time inside every policy call
  int64_t thread_cpu_ns = 0;     // thread CPU inside every policy call
};

/// Decorator that forwards every ServingPolicy virtual to `inner` and
/// times each call, recording a span per arrival decision and per planning
/// round (parented to the serving call's span) when `recorder` is given.
/// Forwards SupportsOffLockPlanning, CreatePlanState and PlanOnView so the
/// runtime keeps its off-lock planning path. Arrivals and plans may run
/// concurrently on different threads (the runtime's contract); each kind
/// keeps its own lock.
class TimedPolicy final : public schemble::ServingPolicy {
 public:
  TimedPolicy(schemble::ServingPolicy* inner, SpanRecorder* recorder,
              int64_t parent_span);

  std::string name() const override { return inner_->name(); }
  schemble::ArrivalDecision OnArrival(
      const schemble::TracedQuery& query,
      const schemble::ServerView& view) override;
  schemble::PolicyOutput OnIdle(
      const schemble::ServerView& view,
      const std::vector<const schemble::TracedQuery*>& buffer) override;
  bool SupportsOffLockPlanning() const override {
    return inner_->SupportsOffLockPlanning();
  }
  std::unique_ptr<schemble::PolicyPlanState> CreatePlanState()
      const override {
    return inner_->CreatePlanState();
  }
  void PlanOnView(const schemble::ServerView& view,
                  schemble::PlanWorkspace* ws) const override;
  schemble::SimTime ArrivalProcessingDelay() const override {
    return inner_->ArrivalProcessingDelay();
  }

  /// Merged arrival and plan timings; read after the serving call returns.
  PolicyCallStats stats() const;

 private:
  void RecordPlan(int64_t start_ns, int64_t cpu_start, size_t buffered) const;

  schemble::ServingPolicy* inner_;
  SpanRecorder* recorder_;
  int64_t parent_span_;
  mutable std::mutex arrival_mu_;
  PolicyCallStats arrivals_;
  mutable std::mutex plan_mu_;
  mutable PolicyCallStats plans_;
};

}  // namespace perfbench

#endif  // SCHEMBLE_PERFBENCH_TRACING_H_
