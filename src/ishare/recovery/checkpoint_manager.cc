#include "ishare/recovery/checkpoint_manager.h"

#include <chrono>

#include "ishare/obs/obs.h"
#include "ishare/recovery/retry.h"

namespace ishare::recovery {

CheckpointManager::CheckpointManager(CheckpointStore* store,
                                     CheckpointManagerOptions options)
    : store_(store), options_(std::move(options)) {
  CHECK(store_ != nullptr);
  last_accrual_ = Now();
}

double CheckpointManager::Now() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status CheckpointManager::OnStepComplete(int64_t step,
                                         const Checkpointable& target) {
  if (!ShouldCheckpoint(step)) return Status::OK();
  // Budget regulation is a token bucket: execution time earns checkpoint
  // credit at `overhead_budget` seconds per second, a boundary fires only
  // when the credit covers the expected (= last observed) cost, and the
  // cost actually paid is debited afterwards. Debiting actuals rather
  // than estimates makes the long-run overhead converge to the budget
  // even when a snapshot turns out more expensive than the estimate —
  // the overshoot is repaid before the next checkpoint is allowed.
  if (options_.overhead_budget > 0) {
    double now = Now();
    credit_seconds_ += options_.overhead_budget * (now - last_accrual_);
    last_accrual_ = now;
    // The first checkpoint runs unconditionally: there is no cost
    // estimate until one has been paid (calibration).
    if (last_cost_seconds_ >= 0 && credit_seconds_ < last_cost_seconds_) {
      stats_.budget_skipped += 1;
      obs::Registry().GetCounter("recovery.checkpoint.budget_skipped").Add(1);
      return Status::OK();
    }
  }
  double t0 = Now();
  Status st = Checkpoint(step, target);
  double t1 = Now();
  if (st.ok()) {
    last_cost_seconds_ = t1 - t0;
    stats_.checkpoint_seconds += last_cost_seconds_;
    if (options_.overhead_budget > 0) {
      credit_seconds_ -= last_cost_seconds_;
      last_accrual_ = t1;
    }
  }
  return st;
}

Status CheckpointManager::Checkpoint(int64_t step,
                                     const Checkpointable& target,
                                     bool commit) {
  Status st = CheckpointImpl(step, target, commit);
  // Health tracking: a failure anywhere (snapshot, stage, or commit)
  // extends the failure streak; only a *committed* checkpoint ends it and
  // advances last_commit_epoch — staged-only frames are invisible to
  // recovery and so must be invisible to health too.
  auto& reg = obs::Registry();
  if (!st.ok()) {
    stats_.consecutive_failures += 1;
  } else if (commit) {
    stats_.consecutive_failures = 0;
    stats_.last_commit_epoch = step;
    reg.GetGauge("recovery.checkpoint.last_commit_epoch")
        .Set(static_cast<double>(step));
  }
  reg.GetGauge("recovery.checkpoint.consecutive_failures")
      .Set(static_cast<double>(stats_.consecutive_failures));
  return st;
}

Status CheckpointManager::CheckpointImpl(int64_t step,
                                         const Checkpointable& target,
                                         bool commit) {
  obs::ScopedSpan span("recovery.checkpoint.encode");
  CheckpointWriter payload;
  if (stats_.checkpoints > 0) {
    // Size to the running mean so a steady-state snapshot grows its
    // buffer at most once.
    payload.Reserve(static_cast<size_t>(stats_.checkpoint_bytes /
                                        stats_.checkpoints));
  }
  ISHARE_RETURN_NOT_OK(target.Snapshot(&payload));

  CheckpointHeader header;
  header.epoch = step;
  header.step = step;
  std::string frame = EncodeCheckpoint(header, payload.data());

  // Store Stage/Commit calls are retried (recovery/retry.h), so a
  // transiently flaky store does not abort the window.
  int attempts = 0;
  double backoff = 0;
  int64_t extra_attempts = 0;
  Status st = RetryTransient([&] { return store_->Stage(step, frame); },
                             &attempts, &backoff);
  extra_attempts += attempts - 1;
  ISHARE_RETURN_NOT_OK(st);

  if (commit) {
    st = RetryTransient([&] { return store_->Commit(step); }, &attempts,
                        &backoff);
    extra_attempts += attempts - 1;
    ISHARE_RETURN_NOT_OK(st);
  }
  stats_.store_retry_attempts += extra_attempts;
  stats_.store_retry_backoff_seconds += backoff;

  stats_.checkpoints += 1;
  stats_.checkpoint_bytes += static_cast<int64_t>(frame.size());
  auto& reg = obs::Registry();
  reg.GetCounter("recovery.checkpoint.count").Add(1);
  reg.GetCounter("recovery.checkpoint.bytes")
      .Add(static_cast<double>(frame.size()));
  if (extra_attempts > 0) {
    reg.GetCounter("recovery.retry.attempts")
        .Add(static_cast<double>(extra_attempts));
    reg.GetCounter("recovery.retry.backoff_seconds").Add(backoff);
  }
  return Status::OK();
}

Result<int64_t> CheckpointManager::RecoverLatest(Checkpointable* target) {
  obs::ScopedSpan span("recovery.restore.run");
  std::vector<int64_t> epochs = store_->CommittedEpochs();
  for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
    int64_t epoch = *it;
    Result<std::string> frame = store_->Load(epoch);
    if (!frame.ok()) continue;
    Result<DecodedCheckpoint> decoded = DecodeCheckpoint(*frame);
    if (!decoded.ok()) {
      // Torn, corrupt, or a format we cannot read: unusable either way.
      stats_.torn_discarded += 1;
      obs::Registry().GetCounter("recovery.checkpoint.torn_discarded").Add(1);
      (void)store_->Drop(epoch);
      continue;
    }
    CheckpointReader reader(decoded->payload);
    Status st = target->Restore(&reader);
    if (st.ok()) st = reader.Finish();
    if (!st.ok()) {
      // The frame checksummed clean but the payload did not restore —
      // treat it like corruption and keep walking back.
      stats_.torn_discarded += 1;
      obs::Registry().GetCounter("recovery.checkpoint.torn_discarded").Add(1);
      (void)store_->Drop(epoch);
      continue;
    }
    stats_.restores += 1;
    obs::Registry().GetCounter("recovery.restore.count").Add(1);
    return decoded->header.step;
  }
  return Status::NotFound("no usable committed checkpoint");
}

}  // namespace ishare::recovery
