#ifndef ISHARE_RECOVERY_RETRY_H_
#define ISHARE_RECOVERY_RETRY_H_

// Bounded exponential backoff for transient faults (DESIGN.md §8). Only
// Status::IsTransient() errors are retried; permanent errors propagate on
// the first attempt so one query's logic error can never stall
// co-scheduled queries behind a retry loop.
//
// Backoff time is *virtual*: BackoffSeconds() is a pure function and the
// executors account it into metrics instead of sleeping, keeping every
// test and bench deterministic and fast. A production deployment would
// sleep for the same values.

#include "ishare/common/status.h"

namespace ishare::recovery {

// Total tries = 1 initial attempt + up to (kMaxAttempts - 1) retries.
inline constexpr int kMaxAttempts = 4;

// True if `status` is transient and `attempt` (1-based count of tries
// already made) leaves budget for another try. The boundary is exact:
// attempt == kMaxAttempts is the last try and never retries, so
// RetryTransient makes exactly kMaxAttempts calls against a persistent
// transient fault, with one fewer backoff accruals.
inline bool ShouldRetry(const Status& status, int attempt) {
  return status.IsTransient() && attempt < kMaxAttempts;
}

// Backoff before retry number `attempt`: min(1 ms · 2^(attempt-1),
// 100 ms), with attempts < 1 treated as 1. Never slept, so there is no
// contention for jitter to decorrelate.
double BackoffSeconds(int attempt);

// Runs `op` (returning Status) until it succeeds, fails permanently or
// has made kMaxAttempts tries, accumulating virtual backoff into
// *backoff_seconds and the attempt count into *attempts (both optional).
// Returns the first permanent error, the last transient error if the
// budget is exhausted, or OK.
template <typename Op>
Status RetryTransient(Op&& op, int* attempts = nullptr,
                      double* backoff_seconds = nullptr) {
  int tries = 0;
  for (;;) {
    Status st = op();
    ++tries;
    if (attempts != nullptr) *attempts = tries;
    if (st.ok() || !ShouldRetry(st, tries)) return st;
    if (backoff_seconds != nullptr) *backoff_seconds += BackoffSeconds(tries);
  }
}

}  // namespace ishare::recovery

#endif  // ISHARE_RECOVERY_RETRY_H_
