#include "tracing.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,query_id\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld,%lld,%s,%lld,%lld,%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.query_id));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name,
                       int64_t parent)
    : recorder_(recorder) {
  span_.name = name;
  span_.id = recorder_ != nullptr ? recorder_->NextId() : 0;
  span_.parent = parent;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = NowNs();
  recorder_->Add(span_);
}

TimedPolicy::TimedPolicy(schemble::ServingPolicy* inner,
                         SpanRecorder* recorder, int64_t parent_span)
    : inner_(inner), recorder_(recorder), parent_span_(parent_span) {}

schemble::ArrivalDecision TimedPolicy::OnArrival(
    const schemble::TracedQuery& query, const schemble::ServerView& view) {
  const int64_t cpu_start = ThreadCpuNs();
  const int64_t start = NowNs();
  const schemble::ArrivalDecision decision = inner_->OnArrival(query, view);
  const int64_t end = NowNs();
  const int64_t cpu = ThreadCpuNs() - cpu_start;
  if (recorder_ != nullptr) {
    recorder_->Add({"core.on_arrival", recorder_->NextId(), parent_span_,
                    start, end, query.query.id});
  }
  std::lock_guard<std::mutex> lock(arrival_mu_);
  arrivals_.arrival_ns.push_back(end - start);
  arrivals_.wall_in_calls_ns += end - start;
  arrivals_.thread_cpu_ns += cpu;
  return decision;
}

schemble::PolicyOutput TimedPolicy::OnIdle(
    const schemble::ServerView& view,
    const std::vector<const schemble::TracedQuery*>& buffer) {
  const int64_t cpu_start = ThreadCpuNs();
  const int64_t start = NowNs();
  schemble::PolicyOutput output = inner_->OnIdle(view, buffer);
  RecordPlan(start, cpu_start, buffer.size());
  return output;
}

void TimedPolicy::PlanOnView(const schemble::ServerView& view,
                             schemble::PlanWorkspace* ws) const {
  const int64_t cpu_start = ThreadCpuNs();
  const int64_t start = NowNs();
  inner_->PlanOnView(view, ws);
  RecordPlan(start, cpu_start, ws->buffer.size());
  std::lock_guard<std::mutex> lock(plan_mu_);
  ++plans_.plan_on_view;
}

void TimedPolicy::RecordPlan(int64_t start_ns, int64_t cpu_start,
                             size_t buffered) const {
  const int64_t end = NowNs();
  const int64_t cpu = ThreadCpuNs() - cpu_start;
  if (recorder_ != nullptr) {
    recorder_->Add({"core.plan", recorder_->NextId(), parent_span_, start_ns,
                    end, -1});
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  plans_.plan_ns.push_back(end - start_ns);
  plans_.plan_buffered += static_cast<int64_t>(buffered);
  plans_.wall_in_calls_ns += end - start_ns;
  plans_.thread_cpu_ns += cpu;
}

PolicyCallStats TimedPolicy::stats() const {
  PolicyCallStats merged;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    merged = plans_;
  }
  std::lock_guard<std::mutex> lock(arrival_mu_);
  merged.arrival_ns = arrivals_.arrival_ns;
  merged.wall_in_calls_ns += arrivals_.wall_in_calls_ns;
  merged.thread_cpu_ns += arrivals_.thread_cpu_ns;
  return merged;
}

}  // namespace perfbench
