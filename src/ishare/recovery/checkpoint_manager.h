#ifndef ISHARE_RECOVERY_CHECKPOINT_MANAGER_H_
#define ISHARE_RECOVERY_CHECKPOINT_MANAGER_H_

// Epoch-based checkpoint orchestration (DESIGN.md §8). The executor calls
// OnStepComplete(step, target) after every pace step; every `epoch_len`-th
// step is an epoch boundary at which the manager may snapshot the target,
// frame + checksum the payload, stage it in the store, and commit.
// RecoverLatest() walks committed epochs newest-first, discarding
// torn/corrupt/unreadable frames, and restores the first intact one into
// a fresh target.
//
// By default the manager self-regulates its cadence with a token bucket:
// elapsed execution time earns checkpoint credit at `overhead_budget`
// seconds per second, an epoch boundary only produces a checkpoint when
// the credit covers the last observed snapshot cost, and the cost
// actually paid is debited — so an underestimated snapshot is repaid
// before the next one is allowed, and long-run overhead converges to the
// budget. The first due boundary always checkpoints (calibration; there
// is no cost estimate before one has been paid). A window too short to
// amortize a snapshot simply is not checkpointed — recovery degrades to
// a cheap rerun. Set overhead_budget = 0 for strict every-epoch cadence;
// crash tests and the harness do, since budget decisions depend on the
// clock.

#include <cstdint>
#include <functional>

#include "ishare/common/status.h"
#include "ishare/recovery/checkpoint.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/recovery/checkpointable.h"

namespace ishare::recovery {

struct CheckpointManagerOptions {
  // Epoch boundary cadence: step counts that are multiples of epoch_len
  // are candidates for a checkpoint. <= 0 disables periodic checkpoints
  // (explicit Checkpoint() still works).
  int64_t epoch_len = 4;
  // Maximum fraction of observed execution time the manager may spend
  // taking checkpoints. Elapsed time earns checkpoint credit at this
  // rate; a due epoch boundary only checkpoints when the credit covers
  // the last observed checkpoint cost (else it is skipped and counted in
  // stats().budget_skipped), and the actual cost paid is debited.
  // 0 disables the budget: every epoch boundary checkpoints.
  double overhead_budget = 0.05;
  // Monotonic clock in seconds used for budget accounting. Unset uses
  // std::chrono::steady_clock; tests inject a scripted clock for
  // determinism.
  std::function<double()> clock;
};

// Plain-struct mirror of the recovery.* obs counters, kept independent of
// the obs layer so noobs builds still report exact numbers.
struct RecoveryStats {
  int64_t checkpoints = 0;
  int64_t checkpoint_bytes = 0;
  // Wall-clock seconds spent taking checkpoints at epoch boundaries —
  // the quantity the overhead budget bounds relative to elapsed time.
  double checkpoint_seconds = 0;
  int64_t torn_discarded = 0;
  int64_t restores = 0;
  int64_t budget_skipped = 0;  // epoch boundaries skipped by the budget
  int64_t store_retry_attempts = 0;  // extra attempts beyond the first
  double store_retry_backoff_seconds = 0;
  // Checkpoint-health signals (DESIGN.md §11): the current streak of
  // failed Checkpoint() calls (reset to 0 by the next committed one) and
  // the epoch of the most recent successful commit (0 before any). Both
  // are mirrored into the recovery.checkpoint.consecutive_failures /
  // last_commit_epoch gauges and the JSON "recovery" block; the chaos
  // Supervisor's checkpoint breaker feeds off the same signal.
  int64_t consecutive_failures = 0;
  int64_t last_commit_epoch = 0;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointStore* store,
                             CheckpointManagerOptions options = {});

  bool ShouldCheckpoint(int64_t step) const {
    return options_.epoch_len > 0 && step > 0 &&
           step % options_.epoch_len == 0;
  }

  // Checkpoints `target` if `step` lands on an epoch boundary.
  Status OnStepComplete(int64_t step, const Checkpointable& target);

  // Unconditionally snapshots `target` as epoch `step`. With
  // `commit = false` the frame is staged but never published — the
  // "crash between snapshot and commit" window the CrashPlan exercises.
  Status Checkpoint(int64_t step, const Checkpointable& target,
                    bool commit = true);

  // Restores `target` from the newest committed checkpoint that decodes
  // and restores cleanly; torn/corrupt/version-mismatched frames are
  // dropped from the store and counted. Returns the step the restored
  // state corresponds to, or NotFound if no usable checkpoint exists.
  Result<int64_t> RecoverLatest(Checkpointable* target);

  const RecoveryStats& stats() const { return stats_; }
  CheckpointStore* store() const { return store_; }
  const CheckpointManagerOptions& options() const { return options_; }

  // Last observed checkpoint cost in seconds, or a negative value before
  // the calibration checkpoint has run.
  double last_checkpoint_cost() const { return last_cost_seconds_; }

 private:
  double Now() const;
  Status CheckpointImpl(int64_t step, const Checkpointable& target,
                        bool commit);

  CheckpointStore* store_;
  CheckpointManagerOptions options_;
  RecoveryStats stats_;
  double last_cost_seconds_ = -1.0;
  double credit_seconds_ = 0.0;
  double last_accrual_ = 0.0;
};

}  // namespace ishare::recovery

#endif  // ISHARE_RECOVERY_CHECKPOINT_MANAGER_H_
