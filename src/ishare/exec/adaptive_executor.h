// Pace-driven execution of a shared plan over one trigger window (paper
// Sec. 2.2, Fig. 3; DESIGN.md §6). A subplan with pace k executes at
// global data fractions i/k; at equal fractions children run before
// parents, and a parent's pace never exceeds its child's. Reports the
// paper's headline quantities: total work (all executions, OpWork units),
// and per-query final work / latency (the executions at the trigger
// point).
//
// Built over a bare SubplanGraph the executor runs exactly that static
// schedule. Built over a CostEstimator it also keeps the paper's
// final-work goals when observed work drifts from the estimator's
// predictions or the stream arrives non-ideally: mid-window pace
// re-derivation, graceful degradation under overload, catch-up executions
// after bursts and slack-ordered shedding under memory pressure — all
// deterministic given the observed stream. Instrumented with obs
// spans/counters under exec.adaptive.* (DESIGN.md §7).
//
// The window is driven stepwise so the recovery layer (DESIGN.md §8) can
// checkpoint between event points and resume after a crash; every
// adaptation decision is work-based (never wall-clock), so a restored run
// replays the exact same skips, catch-ups and re-derivations.

#ifndef ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_
#define ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ishare/common/fraction.h"
#include "ishare/common/status.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/subplan_exec.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/opt/pace_optimizer.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/recovery/checkpointable.h"
#include "ishare/sched/worker_pool.h"
#include "ishare/storage/stream_source.h"

namespace ishare {

// Per-subplan measurements of one pace-driven run.
struct SubplanRunStats {
  std::vector<double> work_per_exec;
  std::vector<double> secs_per_exec;
  std::vector<double> exec_fraction;  // data fraction of each execution
  double total_work = 0;
  double total_seconds = 0;
  // The execution at the trigger point (fraction 1.0).
  double final_work = 0;
  double final_seconds = 0;
  int64_t tuples_out = 0;
};

// Result of executing a shared plan under a pace configuration.
struct RunResult {
  double total_work = 0;      // the paper's "total work" (CPU proxy)
  double total_seconds = 0;   // the paper's "total execution time"
  std::vector<SubplanRunStats> subplans;
  // Per query: sum over the query's subplans of their final execution
  // work/time (the paper's "final work" and "latency").
  std::vector<double> query_final_work;
  std::vector<double> query_latency_seconds;
};

// Knobs of the adaptive runtime (see DESIGN.md, "Runtime robustness").
// Every decision is deterministic given the observed stream, so a run is
// replayable from a seeded FaultPlan.
struct AdaptivePolicy {
  // ---- Memory flow control (DESIGN.md §9) -------------------------------
  // All of these are inert until ExecOptions::flow.budget is set. Under a
  // limited budget, scheduled intermediate executions of sheddable
  // subplans are always deferrable: the trigger still runs over all
  // remaining input, so deferral moves only peak memory and latency.
  //
  // Budget pressure (used/budget) at which slack-ordered deferral starts.
  // The deferral quota ramps linearly from 0 here to every sheddable
  // subplan at pressure 1.0 (flow::ShedQuota), so a slacker subplan is
  // always shed before a less-slack one.
  double shed_pressure_start = 0.7;
  // At/over the hard budget, additionally *drop* pending input of the
  // slackest subplans (with exact accounting in FlowStats) until usage
  // fits. Off by default: drops trade result completeness of slack
  // queries for the hard memory bound; zero-slack queries are never
  // dropped from.
  bool enable_shed_drop = false;
  // Pressure at/above which the drop pass fires, and the level it drains
  // back below. 1.0 = act only once the hard budget is breached; lower
  // values leave headroom for the growth the upcoming executions will
  // add before the next drop pass can run.
  double drop_pressure_target = 1.0;
};

// What the adaptive layer did during one run.
struct AdaptationStats {
  int rederivations = 0;
  int64_t skipped_execs = 0;   // degraded (merged into a later execution)
  int64_t catchup_execs = 0;   // unscheduled executions against backlog
  double drift_ratio = 1.0;    // final observed/predicted work ratio
  double rederive_seconds = 0; // optimizer time spent mid-window
  // Pace configurations in effect over the run: the initial one plus one
  // entry per re-derivation.
  std::vector<PaceConfig> pace_history;
};

// One hard-budget drop: which subplan's pending input was discarded, at
// what slack. Reporting-only — not checkpointed and not part of the state
// fingerprint (a recovered run's log covers only post-restore drops).
struct ShedDropEvent {
  int64_t step = 0;    // 1-based step whose drop pass emitted this
  int subplan = 0;
  double slack = 0;    // subplan slack at drop time (the ordering key)
  int64_t tuples = 0;  // pending input discarded
};

struct AdaptiveRunResult {
  RunResult run;
  AdaptationStats stats;
  // Flow-control ledger (empty counts when no budget was attached).
  flow::FlowStats flow;
  std::vector<ShedDropEvent> drop_log;
};

// Drives a SubplanGraph over a simulated trigger window. The executor
// owns the subplan output buffers; query results remain available in the
// query roots' buffers after the window completes.
//
// Without an estimator it replays the pace configuration it was started
// with and adapts nothing. With one it keeps the final-work goals when
// the world diverges from the plan:
//   1. monitors drift between observed per-execution work and the cost
//      estimator's prediction, and re-derives the remaining paces
//      mid-window (PaceOptimizer, warm-started from the schedule in
//      flight, aimed at drift-corrected constraints);
//   2. degrades gracefully under overload: scheduled intermediate
//      executions of subplans whose queries have slack are skipped, which
//      merges their pending deltas into the next execution instead of
//      replaying a stale schedule;
//   3. catches up after bursts: a subplan whose input backlog spikes gets
//      an unscheduled execution so the backlog does not land in the final
//      (latency-critical) execution;
//   4. under a limited memory budget, defers (and optionally drops) work
//      of the slackest subplans first (DESIGN.md §9).
// Correctness is invariant under all of these except drops: the trigger
// execution always runs over all remaining input, so materialized results
// match the batch results — only work and latency change.
class AdaptiveExecutor : public recovery::Checkpointable {
 public:
  // Hard cap on mid-window re-derivations (each costs optimizer time).
  static constexpr int kMaxRederivations = 4;

  // Called after step `step` (1-based count of completed event points)
  // finishes; a non-OK return aborts the window. The crash/recovery
  // harness injects kills and checkpoints here.
  using StepHook = std::function<Status(int64_t step)>;
  // Called right before subplan `subplan` executes within step `step`.
  using SubplanHook = std::function<Status(int64_t step, int subplan)>;
  // Called after dependency level `wave` (0-based index among the step's
  // dispatched levels) finishes executing but before any of the step's
  // metrics publish — the window in which a crash loses a parallel step's
  // partial results wholesale. Fires only when the executor owns a worker
  // pool (never in serial runs); the crash harness's kMidWave kill-point
  // lands here.
  using WaveHook = std::function<Status(int64_t step, int wave)>;

  // Static schedule: runs exactly the paces handed to BeginWindow. The
  // stream source must be freshly constructed or Reset().
  AdaptiveExecutor(const SubplanGraph* graph, StreamSource* source,
                   ExecOptions opts = ExecOptions());

  // Adaptive schedule: `estimator` supplies the prediction baseline and
  // the re-derivation search space; `abs_constraints` are absolute
  // final-work constraints indexed by query id (same units as the
  // estimator). The stream source must be freshly constructed or Reset().
  AdaptiveExecutor(CostEstimator* estimator, StreamSource* source,
                   std::vector<double> abs_constraints,
                   AdaptivePolicy policy = AdaptivePolicy(),
                   ExecOptions opts = ExecOptions(),
                   PaceOptimizerOptions opt_opts = PaceOptimizerOptions());

  // Zeros the aggregated base-bytes component in the arbiter. Subplan
  // buffers and executors release their own components; the base
  // component is the executor's and would otherwise double-count across
  // churn epochs (DESIGN.md §13).
  ~AdaptiveExecutor();

  // Executes the whole trigger window starting from `initial_paces`;
  // every pace must be >= 1 and there must be one per subplan. Malformed
  // configurations and runtime storage failures return Status instead of
  // aborting. Equivalent to BeginWindow + ResumeWindow.
  Result<AdaptiveRunResult> Run(const PaceConfig& initial_paces);

  // Validates the paces and arms the window's event points without
  // executing anything.
  Status BeginWindow(const PaceConfig& initial_paces);
  // Runs every remaining step of the armed window (all of them after
  // BeginWindow; the tail after Restore) and finalizes per-query totals.
  Result<AdaptiveRunResult> ResumeWindow();

  // Mid-window entry for churn epoch switches (DESIGN.md §13): like
  // BeginWindow, but the window starts at event points strictly after
  // `from` with the step counter seeded at `completed_steps`. The stream
  // source must already sit at `from` — the previous epoch's executor
  // left it there — and carried state is installed by the caller between
  // construction and the first RunStep().
  Status BeginWindowAt(const PaceConfig& paces, const Fraction& from,
                       int64_t completed_steps);

  // One event point of the window: execute, advance the step counter,
  // fire the after-step hook. InvalidArgument with no active window or no
  // remaining points. ResumeWindow() == loop RunStep() + CompleteWindow().
  Status RunStep();
  bool HasPendingSteps() const { return ws_.active && !ws_.points.empty(); }
  // Finalizes per-query aggregates and deactivates the window; valid only
  // when no points remain.
  Result<AdaptiveRunResult> CompleteWindow();
  // Last completed event point (the stream-source position).
  Fraction position() const { return ws_.last_point; }

  bool window_active() const { return ws_.active; }
  int64_t completed_steps() const { return ws_.step; }

  void set_after_step_hook(StepHook h) { after_step_ = std::move(h); }
  void set_before_subplan_hook(SubplanHook h) {
    before_subplan_ = std::move(h);
  }
  void set_after_wave_hook(WaveHook h) { after_wave_ = std::move(h); }

  // Owned worker pool, or nullptr when the executor runs serial (always
  // nullptr when both a memory budget and an estimator are attached; see
  // the ctor). The chaos injector targets it for worker stall/delay
  // events.
  sched::WorkerPool* worker_pool() const { return pool_.get(); }

  // Live flow-control ledger of the window in flight; the chaos
  // Supervisor polls it per step to derive defer/shed activity.
  const flow::FlowStats& flow_stats() const { return ws_.out.flow; }

  // Checkpointable (DESIGN.md §8): pace table + drift state + remaining
  // event points + adaptation stats + the execution substrate. Restore
  // must be called on a freshly constructed executor over the same
  // estimator/graph and an un-advanced source; it replays the source to
  // the checkpointed event point.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;

  // Deterministic digest of the execution state: everything Snapshot
  // covers except wall-clock timings. Two runs that processed the same
  // data identically have equal fingerprints, crash or no crash.
  std::string StateFingerprint() const;

  // Leaf deltas already in buffers that the next executions will re-read;
  // right after Restore this is the recovery replay backlog.
  int64_t ReplayBacklog() const;

  // Total leaf tuples the engine has taken responsibility for (consumed
  // offsets across every subplan's leaves). The flow-accounting identity
  // the overload harness checks is
  //   ConsumedInput() == flow.admitted_tuples + flow.dropped_tuples.
  int64_t ConsumedInput() const;

  // Output buffer of query q's root subplan (valid after Run()).
  DeltaBuffer* query_output(QueryId q) const;
  DeltaBuffer* subplan_output(int subplan) const {
    return buffers_[subplan].get();
  }
  // The executor running subplan i; churn uses it to snapshot and carry
  // per-subplan operator state across an epoch switch.
  SubplanExecutor* subplan_executor(int i) const {
    return executors_[static_cast<size_t>(i)].get();
  }

  // Per-query time slackness under the current drift-corrected
  // predictions (see QuerySlackFractions); the shedding policy's ranking
  // signal. Valid after BeginWindow; empty without an estimator.
  const std::vector<double>& query_slack() const { return slack_; }

  // True when subplan s serves an at-risk query and is therefore exempt
  // from degradation and shedding (every subplan is, without an
  // estimator). Valid after BeginWindow.
  bool subplan_protective(int s) const { return protective_[s]; }

 private:
  AdaptiveExecutor(const SubplanGraph* graph, CostEstimator* estimator,
                   StreamSource* source, std::vector<double> abs_constraints,
                   AdaptivePolicy policy, ExecOptions opts,
                   PaceOptimizerOptions opt_opts);

  // Refreshes per-subplan work predictions and per-query risk flags for
  // the current pace configuration and drift estimate.
  void RecomputePredictions();
  void RebuildPoints(const Fraction& after);
  double DriftRatio() const;
  void PublishBaseBytes();
  Status ShedDropPass(const std::vector<int>& shed_order);
  // One event point through the level loop (DESIGN.md §10): per level,
  // decide which subplans run, fire their before-subplan hooks, execute
  // them (on the pool or inline), then apply metrics, run stats and drift
  // in topo order once every level has finished.
  Status StepOnce();
  AdaptiveRunResult FinishWindow();
  Status SnapshotImpl(recovery::CheckpointWriter* w,
                      bool include_timings) const;

  const SubplanGraph* graph_;
  StreamSource* source_;
  // nullptr for a static schedule: every adaptive decision (skip,
  // catch-up, re-derivation, slack hints, defer/drop/backpressure) checks
  // for it.
  CostEstimator* estimator_;
  std::vector<double> constraints_;
  AdaptivePolicy policy_;
  ExecOptions opts_;
  PaceOptimizerOptions opt_opts_;

  PaceConfig paces_;
  double corrected_ratio_ = 1.0;  // drift ratio at the last re-derivation
  std::vector<double> pred_final_;     // per-subplan final execution work
  std::vector<double> pred_nonfinal_;  // per-subplan avg intermediate work
  double pred_total_ = 0;              // whole-window work under paces_
  std::vector<bool> protective_;       // subplan serves an at-risk query
  // Queries admitted with zero initial slackness (window-start slack
  // <= 1e-9, before any drift correction). Their at-risk status is
  // sticky: a mid-window drift estimate that predicts spare headroom is
  // never grounds to shed work the window was admitted with no slack
  // for. Serialized in checkpoints so recovery preserves the guarantee.
  std::vector<bool> zero_slack_sticky_;
  std::vector<double> slack_;          // per-query time slackness [0, 1]
  std::vector<double> subplan_slack_;  // min slack over the served queries
  std::vector<bool> sheddable_;        // == !protective_, the shed universe
  // Aggregated base-buffer bytes component in opts_.flow.budget (-1 when
  // no budget). Base buffers belong to the shared source, so they are
  // polled into one component rather than attached, keeping the source
  // free of pointers into an executor-scoped arbiter.
  int base_component_ = -1;

  // Window state, all deterministic given the observed stream (the
  // *_seconds fields are reporting-only and never feed decisions).
  struct WindowState {
    AdaptiveRunResult out;
    std::set<Fraction> points;   // remaining event points
    Fraction last_point{0, 1};   // last completed point (source position)
    double drift_obs = 0;        // scheduled-execution observed work
    double drift_pred = 0;       // matching predicted work
    int64_t sched_execs = 0;
    double observed_total = 0;
    int64_t step = 0;            // completed event points (1-based count)
    bool active = false;
  };
  WindowState ws_;
  StepHook after_step_;
  SubplanHook before_subplan_;
  WaveHook after_wave_;

  // Owned worker pool (nullptr = serial), the children-first topo order
  // and the dependency levels the step loop walks: the graph's static
  // levels with a pool, one singleton level per subplan in topo order
  // without. All fixed at construction (DESIGN.md §10).
  std::unique_ptr<sched::WorkerPool> pool_;
  std::vector<int> topo_;
  std::vector<std::vector<int>> levels_;

  std::vector<std::unique_ptr<DeltaBuffer>> buffers_;
  std::vector<std::unique_ptr<SubplanExecutor>> executors_;
};

// Sums the weights of buffer tuples valid for query q; the result maps
// each distinct row to its net multiplicity. Used to check that
// incremental execution converges to the batch result.
std::unordered_map<Row, int64_t, RowHasher> MaterializeResult(
    const DeltaBuffer& buffer, QueryId q);

}  // namespace ishare

#endif  // ISHARE_EXEC_ADAPTIVE_EXECUTOR_H_
