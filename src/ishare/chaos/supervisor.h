// ishare::chaos — supervised execution (DESIGN.md §11). The Supervisor
// wraps an AdaptiveExecutor window and unifies the engine's
// fault reactions behind one policy spine keyed off the status taxonomy:
//
//   IsTransient (kUnavailable)            → retry, capped deterministic
//                                           backoff (recovery/retry.h);
//   IsRetryableBackpressure (kResourceExhausted)
//                                         → defer, never retry-loop (the
//                                           flow layer owns the fix);
//   anything else                         → degrade or fail.
//
// Per-subsystem circuit breakers condense repeated failures into modes:
//
//   checkpoint breaker  open      → skip checkpoints entirely (track-only
//                                   fallback: the window keeps answering,
//                                   recovery degrades to rerun);
//                       half-open → stretched cadence (probe every
//                                   2nd due boundary);
//                       a 4th trip, or any permanent store error →
//                                   safe-stop (persistence disabled for
//                                   the rest of the window);
//   source breaker      open/half-open → catch-up mode: persistence is
//                                   deferred while the stream drains its
//                                   backlog (checkpointing a window that
//                                   is behind schedule wastes the budget
//                                   the catch-up executions need);
//   memory breaker      open      → shedding escalation is reported (the
//                                   AdaptiveExecutor's slack-ranked
//                                   defer/shed machinery is the actuator;
//                                   the breaker is the observer).
//
// The Supervisor's *active* interventions are deliberately confined to
// the checkpoint/persistence axis: skipping or stretching checkpoints
// never changes query results, so supervised runs stay bit-exact with
// unsupervised ones — fail the redundancy machinery, never the answers.
//
// Every mode change is summarized by an explicit degradation ladder
//   full service → deferred → shed → checkpoint-degraded → safe-stop
// with each transition recorded (step + cause) in obs counters and the
// JSON "chaos" block (schema v5).

#ifndef ISHARE_CHAOS_SUPERVISOR_H_
#define ISHARE_CHAOS_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ishare/chaos/breaker.h"
#include "ishare/common/status.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/recovery/checkpoint_manager.h"

namespace ishare::chaos {

// The degradation ladder, ordered by severity. The level each step lands
// on is derived from breaker states and the step's flow activity.
enum class ServiceLevel {
  kFull = 0,
  kDeferred = 1,           // deferral active (flow or catch-up mode)
  kShed = 2,               // memory breaker open / drops observed
  kCheckpointDegraded = 3, // checkpoint breaker not closed
  kSafeStop = 4,           // persistence permanently disabled
};

const char* ServiceLevelName(ServiceLevel level);

// The unified reaction policy (the spine the file comment describes).
enum class Reaction { kRetry, kDefer, kDegrade, kFail };

// Pure classification of a failure Status; Status::OK() is not a failure
// and must not be passed.
Reaction ClassifyFailure(const Status& st);

struct LadderTransition {
  int64_t step = 0;
  ServiceLevel from = ServiceLevel::kFull;
  ServiceLevel to = ServiceLevel::kFull;
  std::string cause;
};

struct SupervisorStats {
  int64_t checkpoint_failures = 0;      // failed supervised boundaries
  int64_t checkpoints_skipped_open = 0; // track-only fallback boundaries
  int64_t checkpoints_stretched = 0;    // half-open cadence-stretch skips
  int64_t catchup_deferred = 0;         // boundaries deferred in catch-up
  int64_t defer_signals = 0;            // flow deferrals observed
  int64_t drop_signals = 0;             // flow drops observed (tuples)
  int64_t stall_observations = 0;
  int64_t pressure_observations = 0;    // steps at/over the trip pressure
  int64_t safe_stops = 0;               // 0 or 1
};

// Supervises the persistence half of one executor window. The executor
// calls the Observe* probes and then OnStepComplete from its after-step
// hook (the chaos harness composes them); OnStepComplete replaces the
// bare CheckpointManager::OnStepComplete call.
class Supervisor {
 public:
  explicit Supervisor(recovery::CheckpointManager* mgr);

  // ---- per-step observations (all optional, call before OnStepComplete)
  // Window advanced to `window_fraction` while the source had released
  // `data_fraction` of its data: no data progress while the window moved
  // is a stall observation against the source breaker.
  void ObserveSourceProgress(int64_t step, double window_fraction,
                             double data_fraction);
  // Budget pressure during `step` (MemoryBudget::Pressure()).
  void ObserveMemoryPressure(int64_t step, double pressure);
  // Cumulative flow ledger after `step`; deltas vs. the previous call
  // yield this step's defer/drop activity.
  void ObserveFlow(int64_t step, const flow::FlowStats& flow);

  // The supervised checkpoint boundary: applies breaker-derived policy
  // (skip when open, stretch when half-open, defer in catch-up mode,
  // nothing after safe-stop), runs the checkpoint when allowed, feeds the
  // outcome back into the checkpoint breaker, and lands the step on the
  // degradation ladder. Never fails the window for a checkpoint error.
  Status OnStepComplete(int64_t step, const recovery::Checkpointable& target);

  ServiceLevel level() const { return level_; }
  bool safe_stopped() const { return safe_stopped_; }
  const SupervisorStats& stats() const { return stats_; }
  const std::vector<LadderTransition>& ladder_log() const {
    return ladder_log_;
  }
  // All three breakers' transitions, merged in (step, breaker) order.
  std::vector<BreakerTransition> breaker_transitions() const;

  CircuitBreaker& checkpoint_breaker() { return checkpoint_breaker_; }
  CircuitBreaker& source_breaker() { return source_breaker_; }
  CircuitBreaker& memory_breaker() { return memory_breaker_; }

 private:
  void EnterSafeStop(int64_t step, const std::string& cause);
  void UpdateLadder(int64_t step);

  recovery::CheckpointManager* mgr_;

  CircuitBreaker checkpoint_breaker_;
  CircuitBreaker source_breaker_;
  CircuitBreaker memory_breaker_;

  SupervisorStats stats_;
  ServiceLevel level_ = ServiceLevel::kFull;
  std::vector<LadderTransition> ladder_log_;
  bool safe_stopped_ = false;
  std::string safe_stop_cause_;

  double last_window_fraction_ = 0;
  double last_data_fraction_ = 0;
  int64_t last_flow_deferred_ = 0;
  int64_t last_flow_dropped_ = 0;
  // This step's observed activity, consumed by UpdateLadder.
  bool step_deferred_ = false;
  bool step_dropped_ = false;
  std::string step_cause_;
  // Due boundaries seen while half-open, for cadence stretching.
  int64_t half_open_boundaries_ = 0;
};

}  // namespace ishare::chaos

#endif  // ISHARE_CHAOS_SUPERVISOR_H_
