// Overload-control harness (DESIGN.md §9): measures a workload's memory
// working set unbounded, derives a deliberately tight budget from it, and
// re-runs the window under that budget with slackness-aware shedding
// enabled — then checks the paper-level claims the flow layer makes:
//
//   1. peak tracked memory stays within the budget (drops + trims work);
//   2. zero-slack queries keep their final-work deadlines and are never
//      dropped from (protective subplans are exempt from shedding);
//   3. the accounting identity holds exactly:
//        arrived == admitted + dropped   (leaf tuples);
//   4. hard-budget drops land on subplans in descending-slack order;
//   5. a defer-only bounded run (drops disabled) reproduces the unbounded
//      run's materialized results — bit-exact on integer/string columns,
//      float aggregates within a 1e-9 relative tolerance (deferral
//      re-batches executions, which reorders float accumulation; the pure
//      bit-exact form is pinned by flow_test on integer-only plans).
//      Deferral moves work, never answers.
//
// Three passes over fresh clones of the same (typically perturbed, bursty)
// source:
//   A. unbounded: budget in track-only mode, measures peak_unbounded and
//      the protective working set, and materializes reference results;
//   B. bounded, defer+drop: the gates 1-4;
//   C. bounded, defer-only: gate 5.

#ifndef ISHARE_HARNESS_OVERLOAD_HARNESS_H_
#define ISHARE_HARNESS_OVERLOAD_HARNESS_H_

#include <string>
#include <vector>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/harness/crash_harness.h"

namespace ishare {

struct OverloadOptions {
  // Pressure at which the drop pass drains to, leaving headroom for the
  // growth of the next step's executions (AdaptivePolicy field of the
  // same name).
  double drop_pressure_target = 0.6;
  AdaptivePolicy policy;  // shedding knobs are overridden per pass
  ExecOptions exec;       // flow options are overridden per pass
};

struct OverloadQueryReport {
  double slack = 0;        // initial slackness under the bounded run
  double constraint = 0;   // absolute final-work constraint L(q)
  double final_work = 0;   // measured in the bounded (defer+drop) run
  bool deadline_met = true;
  int64_t deferred_execs = 0;
  int64_t dropped_tuples = 0;
};

// Outcome of one unbounded-vs-bounded comparison. AllGatesPass() is the
// bench_overload acceptance condition.
struct OverloadReport {
  // Pass A: unbounded working set.
  int64_t peak_unbounded = 0;
  int64_t protective_peak = 0;  // base + protective subplans' components
  int64_t budget_bytes = 0;     // derived, then imposed on passes B and C

  // Pass B: bounded run, defer + drop.
  int64_t peak_bounded = 0;
  int64_t arrived = 0;   // leaf tuples the engine consumed or discarded
  int64_t admitted = 0;  // processed by executions
  int64_t dropped = 0;   // discarded with accounting
  flow::FlowStats flow;
  std::vector<ShedDropEvent> drop_log;
  std::vector<OverloadQueryReport> queries;

  // The gates.
  bool peak_within_budget = false;     // peak_bounded <= budget_bytes
  bool zero_slack_deadlines_kept = false;  // and never dropped from
  bool accounting_balanced = false;    // arrived == admitted + dropped
  bool shed_order_descending = false;  // per-step drop slacks non-increasing
  bool defer_only_bit_exact = false;   // pass C == pass A, per-query maps
  std::string mismatch;                // first failed gate, for diagnostics

  bool AllGatesPass() const {
    return peak_within_budget && zero_slack_deadlines_kept &&
           accounting_balanced && shed_order_descending &&
           defer_only_bit_exact;
  }
};

// Runs the three passes over `estimator`'s graph starting from `paces`
// with absolute final-work constraints `abs_constraints`. `make_source`
// must yield a fresh, un-advanced source per call (clones of one
// perturbed source replay identical streams, which gate 5 relies on).
Result<OverloadReport> RunOverload(CostEstimator* estimator,
                                   const PaceConfig& paces,
                                   const std::vector<double>& abs_constraints,
                                   const SourceFactory& make_source,
                                   const OverloadOptions& options);

}  // namespace ishare

#endif  // ISHARE_HARNESS_OVERLOAD_HARNESS_H_
