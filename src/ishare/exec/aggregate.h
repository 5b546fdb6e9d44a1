// Shared incremental group-by aggregate — the blocking operator whose
// delete+insert churn under eager paces motivates the paper (Fig. 1), and
// whose MIN/MAX delete-rescan reproduces the non-incrementability of
// TPC-H Q15 (Sec. 5.3).

#ifndef ISHARE_EXEC_AGGREGATE_H_
#define ISHARE_EXEC_AGGREGATE_H_

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ishare/arrange/arrangement.h"
#include "ishare/exec/phys_op.h"

namespace ishare {

// Shared incremental group-by aggregate.
//
// Because marking selects upstream give tuples heterogeneous query sets,
// the operator keeps one accumulator per (group, sharing query). After each
// incremental execution it emits, for every touched group, a delete of the
// previously emitted result row and an insert of the new one (per query;
// queries whose rows are identical are coalesced into one delta tuple with
// a merged query set). This delete+insert churn is precisely the overhead
// of eager incremental execution the paper optimizes (Fig. 1).
//
// MIN/MAX keep a value->multiplicity map per (group, query); deleting the
// current extremum triggers a full rescan of the map, reproducing the
// non-incrementability of TPC-H Q15 discussed in Sec. 5.3.
//
// Shared arrangements (DESIGN.md §15): when the input is *eligible* — fed
// directly by a scan whose query set covers the aggregate's, so every
// per-query accumulator provably sees the identical update stream — the
// group map moves into a shared versioned arrangement and this operator
// keeps only per-group emit bookkeeping (one slot, since all queries emit
// identically). EndExecution folds each dirty group's accumulators at this
// reader's version, metering exactly the chain window consumed during the
// execution, so results and work meters stay bit-exact with private mode.
class AggregateOp : public PhysOp {
 public:
  AggregateOp(const PlanNode* node, const Schema& input_schema,
              const ExecOptions::ArrangeOptions& arrange = {});
  ~AggregateOp() override;

  DeltaBatch Process(int child_idx, DeltaBatch in) override;
  DeltaBatch EndExecution() override;

  // Morsel-driven parallelism (DESIGN.md §10): batches of at least
  // `opts.morsel_min_tuples` are partitioned by group-key hash and
  // accumulated by the pool, two-phase in the style of parallel group-by
  // (thread-local work meters, serial pre-pass owning all hash-map
  // structure mutation). Bit-exact with serial because each group's
  // accumulators see the same update subsequence in the same order.
  // Arranged mode stays serial: its build goes through the shared
  // arrangement, whose apply order must match the input stream exactly.
  void BindScheduler(sched::WorkerPool* pool,
                     const sched::SchedulerOptions& opts) override;

  // Group state is checkpointed with group keys in canonical order so the
  // snapshot is independent of hash-map bucket history; the dirty set is
  // kept insertion-ordered (vector + membership set) precisely so
  // EndExecution's emission order is a function of the input stream, not
  // of bucket layout — the property bit-exact recovery rests on.
  // Arranged mode writes a compact record (flag + reader version + emit
  // bookkeeping) — the shared contents live in the catalog's checkpoint.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;
  // Folds the arrangement into the private layout and writes exactly the
  // bytes the private Snapshot would (DESIGN.md §15.5).
  Status SnapshotCanonical(recovery::CheckpointWriter* w) const override;

  void OnInputDiscarded() override;
  void SetSlackHint(double slack) override;

  int64_t NumGroups() const;

  // True when the group map currently lives in a shared arrangement.
  bool Arranged() const;

  // Approximate bytes of *privately held* state (groups in private mode,
  // emit bookkeeping in arranged mode); arranged accumulators are
  // accounted once by their arrangement's `arr:` budget component.
  int64_t StateBytes() const override;

 private:
  using Accum = arrange::AccumCell;

  struct QueryState {
    int64_t row_count = 0;  // weighted number of contributing input tuples
    std::vector<Accum> accums;
    bool emitted = false;
    Row last_emitted;
  };

  struct GroupState {
    Row key;
    std::vector<QueryState> per_query;  // indexed by query position
  };

  // Arranged-mode emit bookkeeping. One slot per group — eligibility
  // guarantees every query position sees the same update stream, so the
  // per-position emitted/last_emitted values are provably identical.
  struct EmitSlot {
    bool emitted = false;
    Row last_emitted;
  };

  // `work` receives the state-maintenance cost: &work_ on the serial
  // path, a thread-local partial on the parallel path (folded back in
  // fixed partition order so totals stay bit-identical).
  static void UpdateAccum(const AggSpec& spec, Accum* a, const Value& v,
                          int32_t w, OpWork* work);
  // Applies one input tuple to its (pre-created) group state.
  void ApplyTuple(const DeltaTuple& t, GroupState* g,
                  const std::vector<Value>& argv, OpWork* work);
  DeltaBatch ProcessParallel(DeltaSpan in);
  // Builds the output row for a group from its row count and accumulators
  // (shared between the private path and arrangement folds), or nullopt
  // when the group has no contributions.
  std::optional<Row> RowFromAccums(const Row& key, int64_t row_count,
                                   const std::vector<Accum>& accums) const;
  // Builds the output row for (group, query position), or nullopt when the
  // group has no contributions for that query.
  std::optional<Row> CurrentRow(const GroupState& g, int qpos);

  // Resolves the arranged-vs-private decision on first use (attach at the
  // current consumed offset; fall private on failure). Const because a
  // snapshot or size query may be the operator's first use.
  void EnsureDecided() const;
  // Folds the arrangement into private groups_ and detaches.
  void MaterializeGroups();
  // Serializes the private-layout group map + dirty set (the canonical
  // format both Snapshot paths share).
  Status SnapshotPrivateFormat(recovery::CheckpointWriter* w,
                               const std::unordered_map<Row, GroupState,
                                                        RowHasher>& groups)
      const;
  DeltaBatch EndExecutionArranged();

  std::vector<int> group_key_idx_;
  std::vector<CompiledExpr> arg_exprs_;  // per AggSpec; default for COUNT(*)
  std::vector<bool> has_arg_;
  std::vector<QueryId> query_ids_;  // position -> query id
  std::unordered_map<Row, GroupState, RowHasher> groups_;
  // Groups touched since the last EndExecution, in first-touch order.
  // `dirty_order_` drives emission; `dirty_seen_` is the O(1) membership
  // guard. An unordered_set alone is not enough: its iteration order
  // depends on bucket-count history, which a restored operator does not
  // share with the original.
  std::vector<Row> dirty_order_;
  std::unordered_set<Row, RowHasher> dirty_seen_;

  // Shared arrangement (nullptr arr_ = private mode): candidate resolved
  // at construction, reader slot, cumulative consumed-tuple offset, and
  // the upper bound of the already-metered chain window. Decision members
  // are mutable because a snapshot may be the operator's first use.
  arrange::Arrangement* cand_ = nullptr;
  mutable bool decided_ = false;
  mutable arrange::Arrangement* arr_ = nullptr;
  mutable int reader_ = -1;
  int64_t version_ = 0;
  int64_t last_metered_version_ = 0;
  std::unordered_map<Row, EmitSlot, RowHasher> emit_state_;

  // Morsel parallelism (nullptr / ignored when serial).
  sched::WorkerPool* pool_ = nullptr;
  int64_t morsel_min_tuples_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_AGGREGATE_H_
