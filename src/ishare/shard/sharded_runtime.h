// ishare::shard — N key-partitioned shard runtimes behind one driver
// (DESIGN.md §14). ROADMAP item 4: the single-runtime library promoted to
// a sharded group with delta exchange at pace boundaries.
//
// A ShardedRuntime owns
//   - one ExchangeFabric repartitioning the base streams by ShardPlan key
//     hash (broadcast for unlisted tables),
//   - N shard runtimes, each a full AdaptiveExecutor (own SubplanGraph,
//     own CostEstimator, own ExchangeShardSource) that may fan out on its
//     own sched::WorkerPool. Each shard writes its query roots' deltas
//     once, into its own root buffers; QueryResult(q) sums the shards'
//     materializations of q, read in place (no merged copy is kept),
//   - one supervised group checkpoint line: every shard serializes into
//     ONE checkpoint blob committed through the two-phase store, so a
//     group epoch is all-shards-or-none by construction. Crash of any
//     shard restores the WHOLE group to the last committed epoch (healthy
//     shards roll back too — that is the consistent cut), or reruns the
//     window from its start when no epoch committed.
//
// Driver model: rounds. Round r runs one event point on every live shard
// (ascending shard id; executors may be internally parallel, the driver
// is single-threaded and deterministic), then does boundary work:
// straggler detection, supervision/checkpoint.
//
// Straggler policy (the paper's slackness, DESIGN.md §6, applied across
// shards): a shard whose completed steps lag the group leader is compared
// against the lag allowance derived from its minimum query slack
// (slack × absorb_slack_fraction × window steps). Within the allowance
// the lag is *absorbed* — the shard quietly runs one extra catch-up step
// per round, results untouched, zero tuples shed. Beyond it the shard is
// *escalated*: burst catch-up of four extra steps per round (its own
// AdaptiveExecutor degradation machinery sees the burst and may merge
// intermediate executions — results stay exact by pace invariance),
// while the chaos Supervisor's source breaker sees the group's minimum
// data fraction stall and walks the existing degradation ladder (kFull →
// kDeferred → ...). Stragglers never safe-stop: safe-stop is reserved for
// the persistence axis (DESIGN.md §11).

#ifndef ISHARE_SHARD_SHARDED_RUNTIME_H_
#define ISHARE_SHARD_SHARDED_RUNTIME_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/chaos/supervisor.h"
#include "ishare/common/status.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/recovery/checkpointable.h"
#include "ishare/shard/exchange.h"
#include "ishare/shard/partitioner.h"

namespace ishare::shard {

// Slackness-aware straggler handling (see file comment).
struct StragglerPolicy {
  // Fraction of a shard's minimum query slack convertible into lag
  // allowance (in window steps) before escalation.
  double absorb_slack_fraction = 0.5;
};

struct ShardOptions {
  int num_shards = 1;
  ShardPlan plan;

  AdaptivePolicy policy;
  ExecOptions exec;
  StragglerPolicy straggler;

  // Group checkpoint line. `store` is borrowed; nullptr uses an internal
  // in-memory store (checkpoints still arm group recovery, they are just
  // not externally durable). Defaults are deterministic: strict cadence
  // every 2 rounds, no wall-clock budget.
  recovery::CheckpointStore* store = nullptr;
  recovery::CheckpointManagerOptions checkpoint;

  ShardOptions() {
    checkpoint.epoch_len = 2;
    checkpoint.overhead_budget = 0;  // deterministic cadence
  }
};

// Monotone counters describing one group run (also published as the
// shard.* observability series at FinishWindow).
struct ShardGroupStats {
  int64_t rounds = 0;
  // Result tuples the shards' query roots hold when the window finishes,
  // summed over shards and queries.
  int64_t merged_tuples = 0;
  int64_t straggler_observations = 0; // boundaries with a lagging shard
  int64_t straggler_lag_steps = 0;    // cumulative lag observed
  int64_t straggler_absorbed = 0;     // lag boundaries within slack
  int64_t straggler_escalations = 0;  // lag boundaries beyond slack
  int64_t recoveries = 0;             // group recoveries (crash-triggered)
  int64_t restored_from_epoch = 0;    // round of the last restored epoch
  int64_t restarts = 0;               // recoveries degraded to rerun
};

struct ShardRunResult {
  std::vector<AdaptiveRunResult> shards;
  ShardGroupStats stats;
  ExchangeStats exchange;
  chaos::SupervisorStats supervisor;
  std::vector<chaos::LadderTransition> ladder_log;
  chaos::ServiceLevel final_level = chaos::ServiceLevel::kFull;
  int64_t checkpoints = 0;  // committed group epochs
  // Total tuples shed across every shard (flow drop ledger). The
  // within-slack straggler gate requires this to be zero.
  int64_t dropped_tuples = 0;
};

class ShardedRuntime : public recovery::Checkpointable {
 public:
  // `dataset` supplies the window's tables (cloned into the fabric, never
  // advanced itself). `plans` are the member queries' logical plans;
  // `constraints` are absolute final-work constraints indexed by query id.
  ShardedRuntime(const Catalog* catalog, const StreamSource& dataset,
                 std::vector<QueryPlan> plans,
                 std::vector<double> constraints,
                 ShardOptions opts = ShardOptions());

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // InvalidArgument when construction-time validation failed (bad plan,
  // bad shard key, fabric init error); every other entry point returns
  // the same error until fixed.
  Status init_status() const { return init_; }

  // Opens the trigger window at uniform pace `max_pace` on every shard.
  Status BeginWindow(int max_pace);
  // One group round: step every live shard once (stragglers more, stalled
  // shards not at all), then detect stragglers, supervise, and checkpoint
  // on epoch boundaries. Recovers first when a shard crashed.
  Status RunRound();
  bool HasPendingRounds() const;
  Result<ShardRunResult> FinishWindow();
  // BeginWindow + rounds + FinishWindow.
  Result<ShardRunResult> Run(int max_pace);

  // ---- fault entry points (ChaosLayer::kShardStall / kShardCrash) -------
  // Shard `s` skips its steps for the next `rounds` rounds, building lag
  // the straggler policy must absorb or escalate.
  Status InjectStall(int s, int64_t rounds);
  // Marks shard `s` crashed; the next RunRound performs group recovery.
  Status InjectCrash(int s);

  // ---- introspection ----------------------------------------------------
  int num_queries() const { return num_queries_; }
  int64_t round() const { return round_; }
  AdaptiveExecutor* shard_exec(int s) const {
    return execs_[static_cast<size_t>(s)].get();
  }
  // Shard s's exchange-fed source: its base logs.
  const StreamSource& shard_source(int s) const {
    return *sources_[static_cast<size_t>(s)];
  }
  recovery::CheckpointManager* checkpoint_manager() { return mgr_.get(); }

  // Result of query q: the sum of every shard's materialized root buffer
  // of q, rows whose counts sum to zero dropped.
  Result<std::unordered_map<Row, int64_t, RowHasher>> QueryResult(
      QueryId q) const;

  // ---- Checkpointable (DESIGN.md §8/§14) --------------------------------
  // One blob for the whole group: round counter, shard window positions,
  // stall deadlines, every shard executor. Snapshot at a round boundary
  // only; Restore rebuilds fresh shard substrates, pre-delivers the
  // exchange to the group's maximum checkpointed position (so every
  // replayed base log covers its checkpointed offsets), then restores
  // shard state in ascending shard id.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;

 private:
  Status BuildShards();     // fresh sources/graphs/estimators/executors
  void DetectStragglers();  // boundary straggler policy
  Status Supervise();       // observations + supervised group checkpoint
  Status Recover();         // group recovery to the last committed epoch
  double MinDataFraction() const;
  int64_t LeadSteps() const;
  void PublishObs(const ShardRunResult& result) const;

  const Catalog* catalog_;
  std::vector<QueryPlan> plans_;
  std::vector<double> constraints_;
  ShardOptions opts_;
  Status init_;
  int num_queries_ = 0;
  int max_pace_ = 1;

  ExchangeFabric fabric_;
  std::unique_ptr<recovery::MemoryCheckpointStore> owned_store_;
  std::unique_ptr<recovery::CheckpointManager> mgr_;
  std::unique_ptr<chaos::Supervisor> supervisor_;

  // Destruction order matters: execs_ reference estimators_, graphs_ and
  // sources_; declare referenced members first so they die last.
  std::vector<std::unique_ptr<ExchangeShardSource>> sources_;
  std::vector<std::unique_ptr<SubplanGraph>> graphs_;
  std::vector<std::unique_ptr<CostEstimator>> estimators_;
  std::vector<std::unique_ptr<AdaptiveExecutor>> execs_;

  std::vector<bool> crashed_;
  std::vector<int64_t> stalled_until_;  // round before which shard skips
  std::vector<bool> escalated_;         // straggler beyond slack

  int64_t round_ = 0;
  bool window_active_ = false;
  ShardGroupStats stats_;
};

}  // namespace ishare::shard

#endif  // ISHARE_SHARD_SHARDED_RUNTIME_H_
