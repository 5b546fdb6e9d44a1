// Online query churn (DESIGN.md §13): dynamic register/deregister of
// queries against a live shared execution, with incremental re-merge.
//
// A ChurnRuntime owns the whole sharing stack for one session — merged
// plan (MqoOptimizer), subplan graph, cost estimator, adaptive executor —
// and rebuilds exactly the parts of it that a membership change touches.
// Membership events are queued at any time and applied at the next pace
// boundary, where the engine state is quiescent by construction:
//
//   1. Departing queries are *quiesced*: each of their subplans runs once
//      more, children first, so every departing query's materialized
//      result is exactly the batch result over the stream prefix seen so
//      far (pace-invariance, DESIGN.md §6). The drained result is kept
//      for the caller, then the query's private state is torn down and
//      its bytes provably return to the memory arbiter.
//   2. The new membership is re-merged deterministically (shared plans in
//      ascending query-id order; unshared fallbacks appended unmerged)
//      and the new subplan graph is diffed against the old one by
//      *canonical signature* — the subplan's full operator signature with
//      child references replaced by the children's canonical signatures.
//      A subplan whose signature, query set and (recursively) children
//      all survive is *carried*: its operator state, output buffer
//      contents and leaf read positions move to the new executor without
//      replay. Everything else is *rebuilt* and replays from offset 0
//      (buffer trimming is forced off under churn, so complete logs are
//      guaranteed).
//   3. Pace re-derivation is localized: the optimizer is warm-started
//      from the carried paces, and carried subplans keep their old pace —
//      only changed subplans get new paces (then a parent<=child repair
//      pass restores the engine's pacing invariant).
//
// Admission control (DESIGN.md §9 taxonomy): when the memory arbiter's
// pressure is at/above 0.9, registrations are *deferred* with
// kResourceExhausted and retried at later boundaries under deterministic
// exponential step backoff — never failed. A registration that keeps
// getting deferred, or whose merge would rebuild more than half of the
// running subplans, is admitted *unshared* (its plan runs privately, the
// graceful-degradation ladder's last rung).
//
// Checkpoints are churn-epoch-tagged: Snapshot() serializes the epoch,
// membership, constraints, unshared flags and pending event queues before
// the executor state, so Restore() can rebuild the exact epoch graph
// deterministically and then restore into it.

#ifndef ISHARE_CHURN_CHURN_RUNTIME_H_
#define ISHARE_CHURN_CHURN_RUNTIME_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/common/status.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/opt/pace_optimizer.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/recovery/checkpointable.h"
#include "ishare/storage/stream_source.h"

namespace ishare {
namespace churn {

// Supplies the single-query logical plan for a query id. Must be a pure
// function of the id: churn re-merge and crash recovery both rebuild
// graphs from it and rely on getting identical plans back.
using QueryProvider = std::function<QueryPlan(QueryId)>;

struct ChurnOptions {
  AdaptivePolicy policy;
  // trim_at_boundaries is forced off at construction: rebuilt subplans
  // replay sibling buffers from offset 0, which requires complete logs.
  ExecOptions exec;
  PaceOptimizerOptions opt;
  MqoOptions mqo;
};

// What churn did over the session so far (monotone counters; also
// published as the churn.* observability series).
struct ChurnStats {
  int64_t registrations = 0;      // queries admitted (shared or unshared)
  int64_t deregistrations = 0;    // queries quiesced and removed
  int64_t deferrals = 0;          // admission defers (kResourceExhausted)
  int64_t unshared_fallbacks = 0; // queries admitted on the private rung
  int64_t epochs = 0;             // membership epochs switched
  int64_t subplans_carried = 0;   // cumulative, across epoch switches
  int64_t subplans_rebuilt = 0;
  int64_t reclaimed_bytes = 0;    // arbiter bytes released by departures
  double quiesce_work = 0;        // cost-model units spent quiescing
};

// The churn-capable shared runtime. Drive it stepwise:
//
//   ChurnRuntime rt(&db.catalog, &db.source, provider);
//   rt.Register(0, 1e18); rt.Register(1, 1e18);
//   rt.BeginWindow(/*max_pace=*/8);
//   while (rt.HasPendingSteps()) rt.RunStep();   // Register/Deregister
//   auto result = rt.FinishWindow();             // any time in between
//
// Thread-compatibility: one driver thread; the executor underneath may
// fan out per ExecOptions::sched.
class ChurnRuntime : public recovery::Checkpointable {
 public:
  ChurnRuntime(const Catalog* catalog, StreamSource* source,
               QueryProvider provider, ChurnOptions opts = ChurnOptions());

  ChurnRuntime(const ChurnRuntime&) = delete;
  ChurnRuntime& operator=(const ChurnRuntime&) = delete;

  // Queues query q for admission with an absolute final-work constraint.
  // Applied immediately when no window is active, else at the next pace
  // boundary (subject to admission control). AlreadyExists if q is live
  // or already queued.
  Status Register(QueryId q, double constraint);

  // Queues query q for quiesce-and-remove at the next pace boundary (or
  // removes it immediately when no window is active). NotFound if q is
  // neither live nor pending; InvalidArgument for the last live query of
  // an active window (an executor needs at least one query).
  Status Deregister(QueryId q);

  // Fresh id above every id ever registered; the chaos layer and the
  // stress benches allocate arrival ids through this.
  QueryId AllocateQueryId() { return next_id_++; }

  // Chaos entry point (ChaosLayer::kQueryChurn): registers `arrivals`
  // fresh provider-built queries, effectively unconstrained, and queues the
  // `departures` lowest live ids for removal (keeping at least one query
  // live). Never fails: admission control turns pressure into deferral.
  Status InjectChurn(int arrivals, int departures);

  // Builds epoch 1 from every queued registration and starts the trigger
  // window with uniform pace `max_pace`. FailedPrecondition-free: errors
  // are InvalidArgument (no queries, window already active).
  Status BeginWindow(int max_pace);

  // One event point of the window, then boundary churn processing (apply
  // due membership events, switch epochs). The trigger point never
  // churns: events queued during the last step wait for the next window.
  Status RunStep();
  bool HasPendingSteps() const;
  Result<AdaptiveRunResult> FinishWindow();

  // ---- Introspection ----------------------------------------------------

  int64_t epoch() const { return epoch_; }
  const ChurnStats& stats() const { return stats_; }
  QuerySet live_queries() const;
  int pending_registrations() const {
    return static_cast<int>(pending_reg_.size());
  }
  bool IsUnshared(QueryId q) const;

  const SubplanGraph* graph() const { return graph_.get(); }
  AdaptiveExecutor* exec() const { return exec_.get(); }

  // Materialized result of a live query at the current stream position.
  Result<std::unordered_map<Row, int64_t, RowHasher>> LiveResult(
      QueryId q) const;
  // Drained result of a departed query: the batch result over the stream
  // prefix it had seen when it was quiesced. NotFound before departure.
  Result<std::unordered_map<Row, int64_t, RowHasher>> DrainedResult(
      QueryId q) const;
  // Window point at which query q was quiesced ({0,1} if never).
  Fraction DepartureFraction(QueryId q) const;
  // Every query that departed so far, ascending (the keys of drained_).
  std::vector<QueryId> departed_queries() const;

  // ---- Checkpointing (DESIGN.md §8/§13) ---------------------------------
  // Snapshot at a pace boundary only (between RunStep calls). Restore on
  // a freshly constructed runtime over the same catalog/provider/options
  // and a freshly Reset() source.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;

 private:
  struct LiveQuery {
    double constraint = 0;
    bool unshared = false;
  };
  struct PendingReg {
    QueryId id = 0;
    double constraint = 0;
    bool unshared = false;   // forced-private admission
    int attempts = 0;        // admission defers so far
    int64_t retry_at = 0;    // earliest step (exec step count) to retry
  };

  const QueryPlan& PlanFor(QueryId q);
  std::vector<QueryPlan> BuildPlans();
  // Canonical per-subplan signatures: FullSignature over a clone whose
  // kSubplanInput leaves are renumbered to child ranks, concatenated with
  // the children's canonical signatures and the subplan's query set.
  static std::vector<std::string> CanonicalSigs(const SubplanGraph& g);
  // carry[i] = old subplan index carried into new subplan i, or -1.
  static std::vector<int> ComputeCarry(const SubplanGraph& oldg,
                                       const SubplanGraph& newg);

  Status ProcessBoundary(const Fraction& f);
  Status SwitchEpoch(const Fraction& f, std::vector<PendingReg> arrivals,
                     const std::vector<QueryId>& departures);
  // Rebuilds graph_/estimator_/exec_ for the current membership. Carried
  // state must be installed by the caller before the window (re)starts.
  Status RebuildEngine(std::unique_ptr<SubplanGraph> graph);
  std::vector<double> ConstraintVector() const;
  Status QuiesceQuery(QueryId q, const Fraction& f);
  void PublishCounter(const char* name, double delta);

  const Catalog* catalog_;
  StreamSource* source_;
  QueryProvider provider_;
  ChurnOptions opts_;
  MqoOptimizer mqo_;

  std::map<QueryId, LiveQuery> live_;       // ordered: deterministic merge
  std::vector<PendingReg> pending_reg_;     // FIFO
  std::vector<QueryId> pending_dereg_;      // FIFO
  std::unordered_map<QueryId, QueryPlan> plan_cache_;
  QueryId next_id_ = 0;

  int64_t epoch_ = 0;
  int max_pace_ = 1;
  PaceConfig paces_;  // runtime-tracked config (executor may re-derive)
  ChurnStats stats_;

  std::unordered_map<QueryId, std::unordered_map<Row, int64_t, RowHasher>>
      drained_;
  std::unordered_map<QueryId, Fraction> departure_points_;

  // Destruction order matters: exec_ references estimator_ and graph_.
  std::unique_ptr<SubplanGraph> graph_;
  std::unique_ptr<CostEstimator> estimator_;
  std::unique_ptr<AdaptiveExecutor> exec_;
};

}  // namespace churn
}  // namespace ishare

#endif  // ISHARE_CHURN_CHURN_RUNTIME_H_
