// Chaos harness (DESIGN.md §11): drives one composed FaultSchedule —
// source perturbations, admission storms, checkpoint-store outages and
// bit-rot, memory-pressure spikes, worker stalls — through a supervised
// AdaptiveExecutor window and gates the hard invariants:
//
//   1. completed: the run returns OK under every schedule — faults may
//      degrade service, never crash or wedge the window;
//   2. results_match_baseline: the defer-only chaos run materializes the
//      same per-query results as a fault-free baseline (int/string cells
//      bit-exact, float aggregates within 1e-9 — see result_compare.h);
//   3. zero_slack_never_shed: queries with zero initial slackness see no
//      shed activity (no deferrals, no drops) and every logged drop hit a
//      non-protective subplan;
//   4. breakers_attributed: every breaker trip maps to an injected fault
//      of a compatible layer at or before the trip step.
//
// Two passes per schedule: A) fault-free baseline over a clean clone with
// a track-only budget (reference results + working-set peak, from which
// the bounded budget is derived); B) the chaos run — perturbed source,
// bounded budget, supervised checkpointing, injector armed. The
// fault-concurrent recovery invariant (storage faults landing while
// parallel waves are in flight) is exercised by RunChaosCrash, which
// wraps the crash harness with a schedule's store faults pre-armed.

#ifndef ISHARE_HARNESS_CHAOS_HARNESS_H_
#define ISHARE_HARNESS_CHAOS_HARNESS_H_

#include <string>
#include <vector>

#include "ishare/chaos/fault_schedule.h"
#include "ishare/chaos/supervisor.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/harness/crash_harness.h"

namespace ishare {

struct ChaosOptions {
  ChaosOptions() {
    checkpoint.epoch_len = 2;
    // Budget decisions depend on the wall clock; chaos schedules need a
    // deterministic boundary at every epoch.
    checkpoint.overhead_budget = 0;
  }

  recovery::CheckpointManagerOptions checkpoint;
  AdaptivePolicy policy;  // defer-only by default (enable_shed_drop=false)
  ExecOptions exec;
};

struct ChaosReport {
  // The gates (see file comment).
  bool completed = false;
  bool results_match_baseline = false;
  bool zero_slack_never_shed = false;
  bool breakers_attributed = false;
  std::string mismatch;  // first failed gate, for diagnostics

  chaos::ServiceLevel final_level = chaos::ServiceLevel::kFull;
  chaos::SupervisorStats supervisor;
  recovery::RecoveryStats recovery;
  flow::FlowStats flow;
  std::vector<chaos::LadderTransition> ladder;
  std::vector<chaos::BreakerTransition> breakers;
  std::vector<chaos::InjectionRecord> injections;
  std::vector<double> initial_slack;
  int64_t budget_bytes = 0;
  int64_t peak_baseline = 0;

  bool AllGatesPass() const {
    return completed && results_match_baseline && zero_slack_never_shed &&
           breakers_attributed;
  }
};

// Runs one composed schedule over `estimator`'s graph starting from
// `paces` with absolute final-work constraints `abs_constraints`.
// `dataset` supplies the window's tables (cloned per pass, never
// advanced itself).
Result<ChaosReport> RunChaos(CostEstimator* estimator,
                             const PaceConfig& paces,
                             const std::vector<double>& abs_constraints,
                             const StreamSource& dataset,
                             const chaos::FaultSchedule& schedule,
                             const ChaosOptions& options);

// Fault-concurrent recovery: a crash-harness cycle (baseline → crashed →
// recovered, bit-exact comparison) over `schedule`'s perturbed source
// with its transient store faults pre-armed, so Stage/Commit retries land
// while the (possibly parallel, options.exec.sched.num_threads > 1)
// window is in flight. Fault counts are clamped below the store-retry
// budget (recovery::kMaxAttempts): the crashed run must die from the
// *planned* kill, not from an exhausted retry. `store` doubles as
// options.store.
Result<CrashRunReport> RunChaosCrash(const SubplanGraph& graph,
                                     const PaceConfig& paces,
                                     const StreamSource& dataset,
                                     const chaos::FaultSchedule& schedule,
                                     recovery::MemoryCheckpointStore* store,
                                     CrashRecoveryOptions options);

}  // namespace ishare

#endif  // ISHARE_HARNESS_CHAOS_HARNESS_H_
