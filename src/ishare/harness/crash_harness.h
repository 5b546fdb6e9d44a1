// Crash/recovery harness (DESIGN.md §8): runs a pace-driven window twice —
// once uninterrupted to establish ground truth, once with a seeded crash
// injected at a chosen point — then tears the crashed executor down,
// restores a fresh one from the latest committed checkpoint, replays the
// outstanding deltas, and checks the recovered run against the baseline
// bit for bit (per-query output logs, the executor state fingerprint and
// work totals; identical per-query final work also fixes every query's
// missed-deadline count, whatever its goal).
//
// Crashes are simulated by hooks returning a marker error, which unwinds
// the window exactly like a process kill would from the storage layer's
// point of view: whatever the checkpoint store committed stays, everything
// else is lost when the executor/source pair is destroyed.

#ifndef ISHARE_HARNESS_CRASH_HARNESS_H_
#define ISHARE_HARNESS_CRASH_HARNESS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/storage/stream_source.h"

namespace ishare {

// Where in the window the simulated process kill lands.
enum class CrashPhase {
  kNone,                   // never crash (control: harness overhead only)
  kAfterStep,              // right after step `step` completes (and after
                           // any checkpoint that step committed)
  kDuringSubplan,          // mid-step, right before subplan `subplan`
                           // executes within step `step`
  kBetweenStageAndCommit,  // after step `step`'s checkpoint is staged in
                           // the store but before it commits (torn write)
  kMidWave,                // mid-step, right after parallel wave `wave` of
                           // step `step` finishes on the pool (fires only
                           // when the executor runs parallel waves; serial
                           // runs complete as a control)
};

struct CrashPlan {
  CrashPhase phase = CrashPhase::kNone;
  int64_t step = 0;  // 1-based event-point index the crash targets
  int subplan = 0;   // only read for kDuringSubplan
  int wave = 0;      // only read for kMidWave (0-based wave index)
};

struct CrashRecoveryOptions {
  CrashRecoveryOptions() {
    checkpoint.epoch_len = 2;
    // Budget decisions depend on the wall clock; crash plans need a
    // deterministic checkpoint at every epoch boundary.
    checkpoint.overhead_budget = 0;
  }

  CrashPlan plan;
  // Checkpoint cadence and budget. The harness default epoch
  // (2) checkpoints more often than the manager default so small test
  // windows exercise multi-epoch recovery.
  recovery::CheckpointManagerOptions checkpoint;
  ExecOptions exec;
  // Required: where checkpoints live. The harness never clears it, so a
  // caller can pre-commit stale epochs to test fallback.
  recovery::CheckpointStore* store = nullptr;
};

// Outcome of one baseline-vs-crash-recovery comparison. `Equivalent()` is
// the paper-level claim under test: a crash at any point must be
// indistinguishable in results from a run that never crashed.
struct CrashRunReport {
  bool crashed = false;  // the plan actually fired
  bool recovered_from_checkpoint = false;  // false: no usable epoch, reran
  int64_t crash_step = 0;      // step the injected kill landed on
  int64_t recovered_step = 0;  // step of the checkpoint restored from
  int64_t total_steps = 0;     // steps of the uninterrupted window
  int64_t replayed_deltas = 0;  // leaf backlog replayed right after restore
  recovery::RecoveryStats recovery;  // manager counters for the crashed run

  bool results_identical = false;    // per-query output logs, byte-exact
  bool state_identical = false;      // StateFingerprint (timings excluded)
  bool work_identical = false;       // total + per-query final work
  std::string mismatch;              // first difference, for diagnostics

  std::vector<double> baseline_query_final_work;
  std::vector<double> recovered_query_final_work;

  bool Equivalent() const {
    return results_identical && state_identical && work_identical;
  }
};

// Builds a fresh, un-advanced stream source. Called once per run (baseline,
// crashed, recovered), so recovery never inherits stream position — it must
// re-derive it from the checkpoint alone.
using SourceFactory = std::function<std::unique_ptr<StreamSource>()>;

// Static-schedule variant: an estimator-less AdaptiveExecutor over `graph`
// under `paces`.
Result<CrashRunReport> RunCrashRecoveryStatic(
    const SubplanGraph& graph, const PaceConfig& paces,
    const SourceFactory& make_source, const CrashRecoveryOptions& options);

// Adaptive variant: AdaptiveExecutor over `estimator`'s graph, starting
// from `paces` with absolute final-work constraints `abs_constraints`.
Result<CrashRunReport> RunCrashRecoveryAdaptive(
    CostEstimator* estimator, const PaceConfig& paces,
    const std::vector<double>& abs_constraints, const AdaptivePolicy& policy,
    const SourceFactory& make_source, const CrashRecoveryOptions& options);

}  // namespace ishare

#endif  // ISHARE_HARNESS_CRASH_HARNESS_H_
