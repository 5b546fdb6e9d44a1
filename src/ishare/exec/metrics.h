// The work unit shared by the runtime and the cost model. Everything the
// paper calls "work" — total work, final work, latency constraints — is
// measured in these units (Sec. 2.1: tuples processed by all operators,
// plus materialization and per-execution startup), so estimates and
// measurements are directly comparable.

#ifndef ISHARE_EXEC_METRICS_H_
#define ISHARE_EXEC_METRICS_H_

#include <cstdint>
#include <vector>

#include "ishare/recovery/retry.h"
#include "ishare/sched/options.h"

namespace ishare {

namespace arrange {
class ArrangementCatalog;
}  // namespace arrange

namespace flow {
class MemoryBudget;
}  // namespace flow

// Work performed by one physical operator, in the paper's cost-model units
// (Sec. 2.1: "the number of tuples processed by all operators"). We count
//  - in:    tuples consumed from inputs,
//  - out:   tuples emitted (this is also the materialization cost when the
//           operator is a subplan root writing to a buffer),
//  - state: extra state maintenance work (hash probes beyond 1 per tuple,
//           min/max rescans after deleting the extremum, ...).
struct OpWork {
  double in = 0;
  double out = 0;
  double state = 0;

  double Total() const { return in + out + state; }

  OpWork& operator+=(const OpWork& o) {
    in += o.in;
    out += o.out;
    state += o.state;
    return *this;
  }
  friend OpWork operator-(OpWork a, const OpWork& b) {
    a.in -= b.in;
    a.out -= b.out;
    a.state -= b.state;
    return a;
  }
};

// Tunables for the runtime; the same constants parameterize the cost model
// so estimated and measured work are in the same units.
struct ExecOptions {
  // Fixed cost charged per incremental execution of a subplan. Models the
  // per-job startup overhead the paper's Spark prototype pays (mitigated
  // but not eliminated by Drizzle-style scheduling [47]).
  double startup_cost = 32.0;

  // Transient storage faults (Status::IsTransient) hit while draining leaf
  // buffers are retried under this policy with virtual exponential backoff
  // (DESIGN.md §8); permanent faults propagate on the first attempt.
  recovery::RetryPolicy retry;

  // Flow control (DESIGN.md §9). All fields are inert until `budget` is
  // set (bench_overload and the overload harness do; plain runs don't).
  struct FlowOptions {
    // Memory arbiter every buffer and executor registers with. Not owned;
    // must outlive the executors. nullptr disables all flow control
    // except boundary trimming.
    flow::MemoryBudget* budget = nullptr;

    // Per-buffer retention limit applied to subplan output buffers
    // (0 = unlimited) and its backpressure watermarks; see BufferLimits.
    int64_t buffer_soft_limit_bytes = 0;
    double buffer_high_watermark = 1.0;
    double buffer_low_watermark = 0.5;

    // Reclaim fully-consumed buffer prefixes at every pace boundary.
    // On by default: trimming is pure compaction, invisible to results.
    bool trim_at_boundaries = true;
  };
  FlowOptions flow;

  // Parallel scheduling (DESIGN.md §10). sched.num_threads == 1 keeps
  // the fully serial legacy path; > 1 makes the owning executor create a
  // sched::WorkerPool and run the subplans of each dependency level on
  // it. Results are bit-exact either way.
  sched::SchedulerOptions sched;

  // Shared arrangements (DESIGN.md §15). All fields are inert until
  // `catalog` is set: with a catalog, eligible HashJoinOp build sides and
  // AggregateOp group maps read the catalog's shared versioned
  // arrangements instead of arrangements of their own. Results stay
  // bit-exact either way; nullptr gives every operator its own.
  struct ArrangeOptions {
    // Shared arrangement catalog. Not owned; must outlive the executors
    // (and, under churn, the engine rebuilds that re-attach to it).
    arrange::ArrangementCatalog* catalog = nullptr;

    // Lazy compaction folds a key's version chain into its base only once
    // the chain exceeds this many entries; zero-slack readers switch the
    // whole arrangement to eager folding regardless.
    int64_t chain_compact_threshold = 64;

    bool enabled() const { return catalog != nullptr; }
  };
  ArrangeOptions arrange;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_METRICS_H_
