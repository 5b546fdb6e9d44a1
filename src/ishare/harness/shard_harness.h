// Shard harness (DESIGN.md §14): drives a chaos FaultSchedule — shard
// stalls (kShardStall), shard crashes (kShardCrash), plus any of the
// other layers — through a ShardedRuntime window and gates the sharded
// execution protocol's hard invariants:
//
//   1. completed: the group run returns OK under every schedule;
//   2. bit_exact: every query's result (the sum of the shards' answers)
//      is equivalent to a fresh serial, unbudgeted, unsharded
//      AdaptiveExecutor run over the same dataset (the N=1 baseline) —
//      sharding, exchange, stragglers and recovery are invisible in the
//      results;
//   3. recovery_consistent: when a kShardCrash landed, the group actually
//      performed a recovery (all shards restored to the last consistent
//      epoch, or the window rerun when none committed) and gate 2 still
//      holds — one shard's crash never yields a partial/mixed-epoch
//      answer;
//   4. straggler_ok, by regime:
//        kWithinSlack  lag was absorbed via slack (absorptions > 0, no
//                      escalation) and zero tuples were shed anywhere;
//        kBeyondSlack  lag escalated (escalations > 0), the supervisor's
//                      degradation ladder left kFull, and the run still
//                      completed without a safe-stop — stragglers degrade
//                      service, never kill the window.

#ifndef ISHARE_HARNESS_SHARD_HARNESS_H_
#define ISHARE_HARNESS_SHARD_HARNESS_H_

#include <string>
#include <vector>

#include "ishare/chaos/fault_schedule.h"
#include "ishare/shard/sharded_runtime.h"

namespace ishare {

// Which straggler invariant the schedule is expected to exercise.
enum class StragglerRegime {
  kNone,         // gate 4 is vacuous
  kWithinSlack,  // stalls small enough for the slack allowance
  kBeyondSlack,  // stalls that must escalate through the ladder
};

struct ShardHarnessOptions {
  shard::ShardOptions shard;
  int max_pace = 8;
  StragglerRegime regime = StragglerRegime::kNone;
};

struct ShardReport {
  // The gates (see file comment).
  bool completed = false;
  bool bit_exact = false;
  bool recovery_consistent = false;
  bool straggler_ok = false;
  std::string mismatch;  // first failed gate, for diagnostics

  int queries_checked = 0;
  int num_shards = 0;
  shard::ShardGroupStats stats;
  chaos::ServiceLevel final_level = chaos::ServiceLevel::kFull;
  bool safe_stopped = false;
  int64_t dropped_tuples = 0;
  int64_t checkpoints = 0;
  std::vector<chaos::InjectionRecord> injections;

  bool AllGatesPass() const {
    return completed && bit_exact && recovery_consistent && straggler_ok;
  }
};

// Runs one shard-group schedule over `plans` and gates the invariants.
// `dataset` supplies the window's tables (cloned into the fabric and into
// the unsharded reference, never advanced itself).
Result<ShardReport> RunShardGroup(const Catalog* catalog,
                                  const StreamSource& dataset,
                                  const std::vector<QueryPlan>& plans,
                                  const std::vector<double>& constraints,
                                  const chaos::FaultSchedule& schedule,
                                  const ShardHarnessOptions& options);

// The gate-2 reference: fresh serial, unbudgeted, unsharded engine over
// the full dataset at pace 1, materialized per query. Exposed for tests
// and the bench.
Result<std::vector<std::unordered_map<Row, int64_t, RowHasher>>>
UnshardedReference(const Catalog* catalog, const StreamSource& dataset,
                   const std::vector<QueryPlan>& plans,
                   const std::vector<double>& constraints);

}  // namespace ishare

#endif  // ISHARE_HARNESS_SHARD_HARNESS_H_
