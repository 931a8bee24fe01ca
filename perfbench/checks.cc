#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

namespace perfbench {
namespace {

template <typename... Args>
std::string Describe(const Args&... args) {
  std::ostringstream out;
  out.precision(17);
  (out << ... << args);
  return out.str();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::string CheckConservation(const schemble::ServingMetrics& m,
                              int64_t trace_size) {
  if (m.total != trace_size) {
    return Describe("total ", m.total, " != trace size ", trace_size);
  }
  const int64_t counted = std::accumulate(m.subset_size_counts.begin(),
                                          m.subset_size_counts.end(),
                                          int64_t{0});
  if (counted != m.total) {
    return Describe("subset_size_counts sum ", counted, " != total ",
                    m.total);
  }
  const int64_t unprocessed =
      m.subset_size_counts.empty() ? 0 : m.subset_size_counts[0];
  if (unprocessed != m.total - m.processed) {
    return Describe("subset_size_counts[0] ", unprocessed,
                    " != total - processed ", m.total - m.processed);
  }
  return "";
}

std::string CheckAccuracyBound(const schemble::ServingMetrics& m) {
  const double accuracy = m.accuracy();
  if (!(accuracy > 0.0)) return Describe("accuracy ", accuracy, " <= 0");
  // Compare sums, not ratios, so rounding cannot flip the verdict.
  if (m.accuracy_sum > static_cast<double>(m.processed)) {
    return Describe("accuracy ", accuracy, " > processed/total ",
                    static_cast<double>(m.processed) /
                        static_cast<double>(m.total));
  }
  return "";
}

std::string CheckLatencyWithinDeadline(const schemble::ServingMetrics& m,
                                       double deadline_ms) {
  int64_t late = 0;
  double worst = 0.0;
  for (double latency : m.latency_ms.samples()) {
    if (latency > deadline_ms) ++late;
    worst = std::max(worst, latency);
  }
  if (late > 0) {
    return Describe(late, " processed queries exceed the ", deadline_ms,
                    " ms deadline (worst ", worst, " ms)");
  }
  return "";
}

std::string CheckIdentical(const schemble::ServingMetrics& a,
                           const schemble::ServingMetrics& b) {
  if (a.total != b.total || a.processed != b.processed ||
      a.missed != b.missed || a.subset_size_counts != b.subset_size_counts) {
    return "replays differ in query counts";
  }
  if (!SameBits(a.accuracy_sum, b.accuracy_sum) ||
      !SameBits(a.processed_accuracy_sum, b.processed_accuracy_sum)) {
    return Describe("replays differ in accuracy: ", a.accuracy(), " vs ",
                    b.accuracy());
  }
  const std::vector<double>& la = a.latency_ms.samples();
  const std::vector<double>& lb = b.latency_ms.samples();
  if (la.size() != lb.size() ||
      (!la.empty() &&
       std::memcmp(la.data(), lb.data(), la.size() * sizeof(double)) != 0)) {
    return "replays differ in latency samples";
  }
  if (a.segments.size() != b.segments.size()) {
    return "replays differ in segment count";
  }
  for (size_t i = 0; i < a.segments.size(); ++i) {
    const schemble::SegmentStats& sa = a.segments[i];
    const schemble::SegmentStats& sb = b.segments[i];
    if (sa.arrivals != sb.arrivals || sa.processed != sb.processed ||
        sa.missed != sb.missed || sa.subset_size_sum != sb.subset_size_sum ||
        !SameBits(sa.accuracy_sum, sb.accuracy_sum) ||
        !SameBits(sa.latency_ms_sum, sb.latency_ms_sum)) {
      return Describe("replays differ in segment ", i);
    }
  }
  return "";
}

std::string CheckBeatsBaseline(double method_accuracy,
                               double baseline_accuracy) {
  if (!(method_accuracy > baseline_accuracy)) {
    return Describe("accuracy ", method_accuracy, " does not exceed the ",
                    "baseline's ", baseline_accuracy);
  }
  return "";
}

std::string CheckFullEnsemble(const schemble::ServingMetrics& m,
                              int64_t trace_size, int num_models) {
  if (m.processed != trace_size) {
    return Describe("processed ", m.processed, " of ", trace_size);
  }
  const size_t full = static_cast<size_t>(num_models);
  const int64_t with_all = full < m.subset_size_counts.size()
                               ? m.subset_size_counts[full]
                               : 0;
  if (with_all != trace_size) {
    return Describe(with_all, " of ", trace_size, " queries ran all ",
                    num_models, " models");
  }
  if (m.accuracy() != 1.0) {
    return Describe("full-ensemble accuracy ", m.accuracy(), " != 1");
  }
  return "";
}

std::string CheckAgreement(const schemble::ServingMetrics& simulator,
                           const schemble::ServingMetrics& runtime) {
  if (simulator.processed != runtime.processed) {
    return Describe("processed: simulator ", simulator.processed,
                    " vs runtime ", runtime.processed);
  }
  // Per-query scores are identical; only the summation order differs.
  if (std::fabs(simulator.accuracy() - runtime.accuracy()) > 1e-12) {
    return Describe("accuracy: simulator ", simulator.accuracy(),
                    " vs runtime ", runtime.accuracy());
  }
  return "";
}

std::vector<std::string> RunNegativeControls(
    const schemble::ServingMetrics& real, int64_t trace_size,
    double deadline_ms, int num_models) {
  std::vector<std::string> accepted;
  auto expect_reject = [&accepted](const char* what,
                                   const std::string& verdict) {
    if (verdict.empty()) accepted.push_back(what);
  };

  schemble::ServingMetrics doctored = real;
  ++doctored.total;
  expect_reject("conservation accepted total off by one",
                CheckConservation(doctored, trace_size));

  doctored = real;
  doctored.latency_ms.Add(deadline_ms + 0.001);
  expect_reject("deadline check accepted a late latency",
                CheckLatencyWithinDeadline(doctored, deadline_ms));

  doctored = real;
  doctored.accuracy_sum = static_cast<double>(doctored.processed) + 1.0;
  expect_reject("accuracy bound accepted accuracy above processed/total",
                CheckAccuracyBound(doctored));

  doctored = real;
  doctored.accuracy_sum = std::nextafter(doctored.accuracy_sum, 0.0);
  expect_reject("identity check accepted a one-ulp accuracy change",
                CheckIdentical(real, doctored));
  expect_reject("baseline check accepted a tie",
                CheckBeatsBaseline(real.accuracy(), real.accuracy()));

  doctored = real;
  ++doctored.processed;
  expect_reject("agreement check accepted processed off by one",
                CheckAgreement(real, doctored));

  // A replay that passed the full-ensemble check, minus one query's match.
  schemble::ServingMetrics full;
  full.total = trace_size;
  full.processed = trace_size;
  full.subset_size_counts.assign(static_cast<size_t>(num_models) + 1, 0);
  full.subset_size_counts.back() = trace_size;
  full.accuracy_sum = static_cast<double>(trace_size);
  if (!CheckFullEnsemble(full, trace_size, num_models).empty()) {
    accepted.push_back("full-ensemble check rejected a correct replay");
  }
  full.accuracy_sum -= 1.0;
  expect_reject("full-ensemble check accepted a missed match",
                CheckFullEnsemble(full, trace_size, num_models));
  return accepted;
}

}  // namespace perfbench
