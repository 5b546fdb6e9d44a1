#include "ishare/obs/tracer.h"

#include <algorithm>

namespace ishare {
namespace obs {

void Tracer::Record(const char* name, double seconds) {
#if ISHARE_OBS_ENABLED
  if (!internal::On()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& s = spans_[name];
  if (s.count == 0) {
    s.min_seconds = seconds;
    s.max_seconds = seconds;
  } else {
    s.min_seconds = std::min(s.min_seconds, seconds);
    s.max_seconds = std::max(s.max_seconds, seconds);
  }
  ++s.count;
  s.total_seconds += seconds;
#else
  (void)name;
  (void)seconds;
#endif
}

std::map<std::string, SpanStats> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace obs
}  // namespace ishare
