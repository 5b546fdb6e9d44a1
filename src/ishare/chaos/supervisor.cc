#include "ishare/chaos/supervisor.h"

#include <algorithm>

#include "ishare/common/check.h"
#include "ishare/obs/obs.h"

namespace ishare::chaos {

const char* ServiceLevelName(ServiceLevel level) {
  switch (level) {
    case ServiceLevel::kFull:
      return "full";
    case ServiceLevel::kDeferred:
      return "deferred";
    case ServiceLevel::kShed:
      return "shed";
    case ServiceLevel::kCheckpointDegraded:
      return "checkpoint-degraded";
    case ServiceLevel::kSafeStop:
      return "safe-stop";
  }
  return "?";
}

Reaction ClassifyFailure(const Status& st) {
  if (st.IsTransient()) return Reaction::kRetry;
  if (st.IsRetryableBackpressure()) return Reaction::kDefer;
  if (st.code() == StatusCode::kDataLoss) return Reaction::kDegrade;
  return Reaction::kFail;
}

namespace {
constexpr BreakerOptions kCheckpointBreaker{/*failure_threshold=*/2,
                                            /*open_steps=*/4,
                                            /*success_threshold=*/2};
constexpr BreakerOptions kSourceBreaker{/*failure_threshold=*/2,
                                        /*open_steps=*/2,
                                        /*success_threshold=*/2};
constexpr BreakerOptions kMemoryBreaker{/*failure_threshold=*/3,
                                        /*open_steps=*/2,
                                        /*success_threshold=*/2};
// While the checkpoint breaker is half-open, only every
// kCadenceStretch-th due epoch boundary actually probes the store.
constexpr int64_t kCadenceStretch = 2;
// Checkpoint-breaker trips beyond this enter safe-stop: the store has
// proven it recovers only to fail again, so stop feeding it.
constexpr int kMaxCheckpointTrips = 3;
}  // namespace

Supervisor::Supervisor(recovery::CheckpointManager* mgr)
    : mgr_(mgr),
      checkpoint_breaker_("checkpoint", kCheckpointBreaker),
      source_breaker_("source", kSourceBreaker),
      memory_breaker_("memory", kMemoryBreaker) {
  CHECK(mgr_ != nullptr);
}

void Supervisor::ObserveSourceProgress(int64_t step, double window_fraction,
                                       double data_fraction) {
  // Window-fraction progress below which a step's source observation
  // counts as a stall (no new data while the window advanced).
  constexpr double kStallEpsilon = 1e-9;
  bool advanced = window_fraction > last_window_fraction_ + kStallEpsilon;
  bool data_progress = data_fraction > last_data_fraction_ + kStallEpsilon;
  if (advanced && !data_progress) {
    ++stats_.stall_observations;
    source_breaker_.RecordFailure(
        step, "source stall: window at " + std::to_string(window_fraction) +
                  ", data stuck at " + std::to_string(last_data_fraction_));
  } else if (data_progress) {
    source_breaker_.RecordSuccess(step);
  }
  last_window_fraction_ = std::max(last_window_fraction_, window_fraction);
  last_data_fraction_ = std::max(last_data_fraction_, data_fraction);
}

void Supervisor::ObserveMemoryPressure(int64_t step, double pressure) {
  // Budget pressure at/above which a step counts as a sustained-pressure
  // failure against the memory breaker.
  constexpr double kMemoryPressureTrip = 0.95;
  if (pressure >= kMemoryPressureTrip) {
    ++stats_.pressure_observations;
    memory_breaker_.RecordFailure(
        step, "sustained memory pressure " + std::to_string(pressure));
  } else {
    memory_breaker_.RecordSuccess(step);
  }
}

void Supervisor::ObserveFlow(int64_t step, const flow::FlowStats& flow) {
  (void)step;
  int64_t deferred = flow.shed_deferred + flow.backpressure_events;
  int64_t dropped = flow.dropped_tuples;
  step_deferred_ = deferred > last_flow_deferred_;
  step_dropped_ = dropped > last_flow_dropped_;
  if (deferred > last_flow_deferred_) {
    int64_t delta = deferred - last_flow_deferred_;
    stats_.defer_signals += delta;
    obs::Registry()
        .GetCounter("chaos.supervisor.defer_signals")
        .Add(static_cast<double>(delta));
  }
  if (dropped > last_flow_dropped_) {
    stats_.drop_signals += dropped - last_flow_dropped_;
  }
  last_flow_deferred_ = std::max(last_flow_deferred_, deferred);
  last_flow_dropped_ = std::max(last_flow_dropped_, dropped);
}

void Supervisor::EnterSafeStop(int64_t step, const std::string& cause) {
  if (safe_stopped_) return;
  safe_stopped_ = true;
  safe_stop_cause_ = cause;
  stats_.safe_stops = 1;
  obs::Registry().GetCounter("chaos.supervisor.safe_stops").Add(1);
  (void)step;
}

Status Supervisor::OnStepComplete(int64_t step,
                                  const recovery::Checkpointable& target) {
  auto& reg = obs::Registry();
  if (!safe_stopped_ && mgr_->ShouldCheckpoint(step)) {
    BreakerState cb = checkpoint_breaker_.StateAt(step);
    if (cb != BreakerState::kHalfOpen) half_open_boundaries_ = 0;
    bool catch_up =
        source_breaker_.StateAt(step) != BreakerState::kClosed;
    if (cb == BreakerState::kOpen) {
      // Track-only fallback: the store is known-bad, so spend nothing on
      // it. Recovery degrades to a rerun from the last good epoch (or
      // from scratch); answers are unaffected.
      ++stats_.checkpoints_skipped_open;
      reg.GetCounter("chaos.supervisor.checkpoints_skipped").Add(1);
    } else if (catch_up) {
      // Catch-up mode: the stream is behind schedule, so persistence
      // yields the window to the executions draining the backlog.
      ++stats_.catchup_deferred;
      reg.GetCounter("chaos.supervisor.catchup_deferred").Add(1);
    } else if (cb == BreakerState::kHalfOpen &&
               (half_open_boundaries_++ % kCadenceStretch) != 0) {
      // Stretched cadence: while recovery is unproven, probe the store
      // only every kCadenceStretch-th due boundary.
      ++stats_.checkpoints_stretched;
      reg.GetCounter("chaos.supervisor.checkpoints_stretched").Add(1);
    } else {
      Status st = mgr_->Checkpoint(step, target);
      if (st.ok()) {
        checkpoint_breaker_.RecordSuccess(step);
      } else {
        // The manager already retried transients (recovery/retry.h);
        // reaching here means the budget is exhausted or the error is
        // permanent. Either way: degrade persistence, never the window.
        ++stats_.checkpoint_failures;
        reg.GetCounter("chaos.supervisor.checkpoint_failures").Add(1);
        checkpoint_breaker_.RecordFailure(step, st.message());
        if (ClassifyFailure(st) == Reaction::kFail ||
            checkpoint_breaker_.trips() > kMaxCheckpointTrips) {
          EnterSafeStop(step, st.message());
        }
      }
    }
  }
  UpdateLadder(step);
  return Status::OK();
}

void Supervisor::UpdateLadder(int64_t step) {
  ServiceLevel to = ServiceLevel::kFull;
  std::string cause = "all breakers closed, no shedding activity";
  if (safe_stopped_) {
    to = ServiceLevel::kSafeStop;
    cause = "safe-stop: " + safe_stop_cause_;
  } else if (checkpoint_breaker_.StateAt(step) != BreakerState::kClosed) {
    to = ServiceLevel::kCheckpointDegraded;
    cause = std::string("checkpoint breaker ") +
            BreakerStateName(checkpoint_breaker_.StateAt(step));
  } else if (memory_breaker_.StateAt(step) == BreakerState::kOpen ||
             step_dropped_) {
    to = ServiceLevel::kShed;
    cause = step_dropped_ ? "hard-budget drops this step"
                          : "memory breaker open";
  } else if (step_deferred_ ||
             source_breaker_.StateAt(step) != BreakerState::kClosed ||
             memory_breaker_.StateAt(step) == BreakerState::kHalfOpen) {
    to = ServiceLevel::kDeferred;
    if (step_deferred_) {
      cause = "shed-deferral / backpressure this step";
    } else if (source_breaker_.StateAt(step) != BreakerState::kClosed) {
      cause = std::string("source breaker ") +
              BreakerStateName(source_breaker_.StateAt(step)) +
              " (catch-up mode)";
    } else {
      cause = "memory breaker half-open";
    }
  }
  if (to != level_) {
    ladder_log_.push_back({step, level_, to, cause});
    auto& reg = obs::Registry();
    reg.GetCounter("chaos.ladder.transitions").Add(1);
    reg.GetGauge("chaos.ladder.level")
        .Set(static_cast<double>(static_cast<int>(to)));
    level_ = to;
  }
  step_deferred_ = false;
  step_dropped_ = false;
}

std::vector<BreakerTransition> Supervisor::breaker_transitions() const {
  std::vector<BreakerTransition> all;
  for (const CircuitBreaker* b :
       {&checkpoint_breaker_, &source_breaker_, &memory_breaker_}) {
    all.insert(all.end(), b->transitions().begin(), b->transitions().end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const BreakerTransition& a, const BreakerTransition& b) {
                     return a.step < b.step;
                   });
  return all;
}

}  // namespace ishare::chaos
