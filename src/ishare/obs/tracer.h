// ishare::obs — span-based tracing (DESIGN.md §7).
//
// A span is one timed region of interest: a pace-optimizer greedy
// iteration, a decomposition clustering round, one subplan execution, an
// AdaptiveExecutor mid-window re-derivation. Spans are aggregated by name
// (count / total / min / max seconds) so tracing stays O(#span-names)
// memory no matter how long a bench runs; the aggregate is exported next
// to the metrics registry by harness/json_export.h.
//
// `ScopedSpan` is the RAII entry point: construction stamps the clock,
// destruction records the elapsed time. With ISHARE_OBS_ENABLED=0 it is
// an empty struct and Record() is a no-op shim.

#ifndef ISHARE_OBS_TRACER_H_
#define ISHARE_OBS_TRACER_H_

#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "ishare/obs/metrics_registry.h"

namespace ishare {
namespace obs {

struct SpanStats {
  int64_t count = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
};

class Tracer {
 public:
  // Thread-safe; aggregates into the per-name SpanStats.
  void Record(const char* name, double seconds);

  std::map<std::string, SpanStats> Snapshot() const;

  // Test-only, like MetricsRegistry::Reset().
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, SpanStats> spans_;
};

// The process-global tracer all ScopedSpans record into.
Tracer& GlobalTracer();

// RAII span timer. `name` must outlive the span (string literals only).
class ScopedSpan {
 public:
#if ISHARE_OBS_ENABLED
  explicit ScopedSpan(const char* name)
      : name_(name), active_(internal::On()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedSpan() {
    if (!active_) return;
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    GlobalTracer().Record(name_, secs);
  }
#else
  explicit ScopedSpan(const char* name) { (void)name; }
#endif

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

#if ISHARE_OBS_ENABLED
 private:
  const char* name_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
#endif
};

}  // namespace obs
}  // namespace ishare

#endif  // ISHARE_OBS_TRACER_H_
