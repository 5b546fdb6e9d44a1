// Single-subplan incremental execution (paper Sec. 2.2–2.3). One
// SubplanExecutor owns the physical operator tree of one subplan, drains
// newly arrived deltas from its leaf buffers per execution, and appends
// results to the subplan's output buffer. Work is metered in the paper's
// cost-model units (see exec/metrics.h for the OpWork unit contract);
// every execution also feeds the exec.subplan.* observability series.
//
// The pump copies each tuple once (DESIGN.md §12): leaves copy what they
// need out of the shared input buffers, batches then move from operator
// to operator, and the root's batch moves into the output buffer.

#ifndef ISHARE_EXEC_SUBPLAN_EXEC_H_
#define ISHARE_EXEC_SUBPLAN_EXEC_H_

#include <memory>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/exec/metrics.h"
#include "ishare/exec/phys_op.h"
#include "ishare/obs/obs.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/storage/delta_buffer.h"
#include "ishare/storage/stream_source.h"

namespace ishare {

// Result of one incremental execution of a subplan.
struct ExecRecord {
  double work = 0;     // cost-model units, incl. the per-execution startup
  double seconds = 0;  // wall-clock time of this execution
  int64_t tuples_in = 0;   // input deltas drained from the leaf buffers
  int64_t tuples_out = 0;
};

// Runs one subplan: builds the physical operator tree from the plan tree,
// registers consumers on the input buffers (base relations and child
// subplan outputs), and on each RunExecution() drains all pending input,
// pushes it through the operators and appends the result to the subplan's
// output buffer.
//
// Storage failures (poisoned buffers, missing tables) surface as Status
// from RunExecution instead of crashing the whole shared runtime.
class SubplanExecutor {
 public:
  // `subplan_buffers[i]` must outlive this executor and already exist for
  // every child subplan index referenced by `sp`.
  SubplanExecutor(const Subplan& sp, StreamSource* source,
                  const std::vector<std::unique_ptr<DeltaBuffer>>& buffers,
                  DeltaBuffer* output, const ExecOptions& opts);

  SubplanExecutor(const SubplanExecutor&) = delete;
  SubplanExecutor& operator=(const SubplanExecutor&) = delete;

  // Zeros this executor's state component in the arbiter: churn destroys
  // executors mid-session, and a leaked component would keep the departed
  // epoch's operator state charged forever (DESIGN.md §13).
  ~SubplanExecutor();

  // Executes one incremental step over all newly arrived input and
  // publishes the exec.subplan.* metrics. Equivalent to ExecuteOnce()
  // followed by PublishExecMetrics().
  Result<ExecRecord> RunExecution();

  // The compute half of RunExecution(): drains input, runs the operator
  // tree, appends output, updates executor-local state — but publishes
  // NO shared observability series. The window executor's level loop
  // calls this (on worker threads when it owns a pool) and then applies
  // PublishExecMetrics serially in topo order, so float-valued counter
  // sums accumulate in the same order with or without a pool (the
  // metrics half of the bit-exactness argument, DESIGN.md §10).
  Result<ExecRecord> ExecuteOnce();

  // The metrics half: adds `rec` to the exec.subplan.* counters and the
  // exec.subplan.exec span. Must be called exactly once per successful
  // ExecuteOnce(), from one thread at a time.
  void PublishExecMetrics(const ExecRecord& rec);

  DeltaBuffer* output() const { return output_; }

  // Cumulative per-operator work, preorder over the subplan tree. Used to
  // derive per-operator work fractions for local final work constraints.
  std::vector<OpWork> OpWorkBreakdown() const;

  int64_t executions() const { return executions_; }

  // Input deltas waiting in the leaf buffers (base tables and child
  // subplan outputs) that the next execution would drain. The adaptive
  // executor watches this for burst backlogs.
  int64_t PendingInput() const;

  // Input deltas drained by the most recent execution (0 before the
  // first); the adaptive executor's backlog baseline.
  int64_t last_input_consumed() const { return last_input_consumed_; }

  // ---- Flow control (DESIGN.md §9) --------------------------------------

  // Total input deltas this executor has taken off its leaf buffers, by
  // processing or by discarding — the "arrived" side of the shed
  // accounting identity (arrived = admitted + dropped).
  int64_t ConsumedInput() const;

  // Load shedding: advances every leaf consumer past its pending input
  // WITHOUT processing it, returning the number of tuples discarded. The
  // discarded prefix becomes trimmable immediately. Only the flow layer
  // calls this, and only for subplans whose every query has slack.
  Result<int64_t> DiscardPendingInput();

  // Approximate bytes of operator state (join build sides, aggregate
  // groups) across the tree; see PhysOp::StateBytes.
  int64_t StateBytes() const;

  // Approximate bytes appended to the output buffer by the most recent
  // execution — the flow layer's headroom ask for the next one.
  int64_t last_output_bytes() const { return last_output_bytes_; }

  // Checkpoint hooks (DESIGN.md §8): execution counters plus every
  // operator's state, preorder over the tree. The consumer registrations
  // themselves are rebuilt by constructing the executor against the same
  // plan — BuildTree registers consumers in a deterministic order, so the
  // ids line up with the buffer offsets restored separately.
  // `canonical` selects PhysOp::SnapshotCanonical — the representation-
  // independent byte layout state fingerprints compare (DESIGN.md §15.5);
  // canonical bytes are for comparison only and cannot be Restored from
  // when arrangements are enabled.
  Status Snapshot(recovery::CheckpointWriter* w, bool canonical = false) const;
  Status Restore(recovery::CheckpointReader* r);

  // Forwards the flow layer's slack estimate for this subplan to every
  // operator (operators reading a shared arrangement pass it to their
  // reader slot, steering compaction eagerness; see DESIGN.md §15.4).
  void SetSlackHint(double slack);

  // Leaf consumer offsets, preorder over the tree (same order BuildTree
  // registers consumers in). A churn epoch switch moves a carried
  // subplan's read positions from the old executor's consumer ids to the
  // new one's: LeafOffsets() on the outgoing executor, SetLeafOffsets()
  // on its replacement. SetLeafOffsets fails if the count does not match
  // the tree's leaves or an offset is outside the buffer's retained range.
  std::vector<int64_t> LeafOffsets() const;
  Status SetLeafOffsets(const std::vector<int64_t>& offsets);

 private:
  struct OpNode {
    std::unique_ptr<PhysOp> op;
    std::vector<OpNode> children;
    // Leaf wiring; null for interior nodes. `leaf` is `op` itself.
    LeafOp* leaf = nullptr;
    DeltaBuffer* input_buffer = nullptr;
    int consumer_id = -1;
  };

  OpNode BuildTree(const PlanNodePtr& node);
  // Drains the subtree's leaves and runs its operators; returns the
  // subtree root's output for this execution.
  Result<DeltaBatch> Pump(OpNode& n, int64_t* tuples_in);
  Result<DeltaSpan> ConsumeLeafWithRetry(OpNode& n);
  void CollectWork(const OpNode& n, std::vector<OpWork>* out) const;
  void CollectPending(const OpNode& n, int64_t* out) const;
  void CollectConsumed(const OpNode& n, int64_t* out) const;
  Status DiscardNode(OpNode& n, int64_t* dropped);
  void CollectLeafOffsets(const OpNode& n, std::vector<int64_t>* out) const;
  Status ApplyLeafOffsets(OpNode& n, const std::vector<int64_t>& offsets,
                          size_t* next);
  int64_t CollectStateBytes(const OpNode& n) const;
  void PublishStateBytes();
  double TotalOpWork(const OpNode& n) const;
  Status SnapshotOps(const OpNode& n, recovery::CheckpointWriter* w,
                     bool canonical) const;
  Status RestoreOps(OpNode& n, recovery::CheckpointReader* r);
  void NotifyInputDiscarded(OpNode& n);
  void ApplySlackHint(OpNode& n, double slack);

  OpNode root_;
  DeltaBuffer* output_;
  ExecOptions opts_;
  StreamSource* source_;
  const std::vector<std::unique_ptr<DeltaBuffer>>& buffers_;
  Status init_status_;
  int64_t executions_ = 0;
  int64_t last_input_consumed_ = 0;
  int64_t last_output_bytes_ = 0;
  double last_total_work_ = 0;
  int state_component_ = -1;  // id in opts_.flow.budget, -1 if unattached
  // Observability handles (resolved once at construction; see DESIGN.md §7).
  obs::Counter* exec_counter_ = nullptr;
  obs::Counter* work_counter_ = nullptr;
  obs::Counter* tuples_in_counter_ = nullptr;
  obs::Counter* tuples_out_counter_ = nullptr;
  obs::Counter* subplan_work_counter_ = nullptr;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_SUBPLAN_EXEC_H_
