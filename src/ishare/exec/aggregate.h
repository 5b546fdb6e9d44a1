// Shared incremental group-by aggregate — the blocking operator whose
// delete+insert churn under eager paces motivates the paper (Fig. 1), and
// whose MIN/MAX delete-rescan reproduces the non-incrementability of
// TPC-H Q15 (Sec. 5.3).

#ifndef ISHARE_EXEC_AGGREGATE_H_
#define ISHARE_EXEC_AGGREGATE_H_

#include <memory>
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
// The groups live in an arrangement (DESIGN.md §15). When the input is
// *eligible* — fed directly by a scan whose query set covers the
// aggregate's, so every per-query accumulator provably sees the identical
// update stream — and ArrangeOptions carries a catalog, the operator reads
// the catalog's shared arrangement, whose one accumulator set per group
// stands for every query. EndExecution folds each dirty group at this
// reader's version, metering exactly the chain window consumed during the
// execution times the query count, so results and work meters equal those
// of an owned arrangement. Otherwise the operator owns a one-reader
// arrangement with an accumulator set per query.
class AggregateOp : public PhysOp {
 public:
  AggregateOp(const PlanNode* node, const Schema& input_schema,
              const ExecOptions::ArrangeOptions& arrange = {});
  ~AggregateOp() override;

  DeltaBatch Process(int child_idx, DeltaBatch in) override;
  DeltaBatch EndExecution() override;

  // Group state is checkpointed with group keys in canonical order so the
  // snapshot is independent of hash-map bucket history; the dirty set is
  // kept insertion-ordered (vector + membership set) precisely so
  // EndExecution's emission order is a function of the input stream, not
  // of bucket layout — the property bit-exact recovery rests on.
  // A shared arrangement is written as a compact record (flag + reader
  // version + emit bookkeeping) — its contents live in the catalog's
  // checkpoint.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;
  // Writes the groups in the owned layout whichever arrangement holds them
  // (DESIGN.md §15.5).
  Status SnapshotCanonical(recovery::CheckpointWriter* w) const override;

  // Forks a shared arrangement into an owned one (DESIGN.md §15.3).
  void OnInputDiscarded() override;
  void SetSlackHint(double slack) override;

  // Approximate bytes of owned state plus emit bookkeeping; a shared
  // arrangement's accumulators are accounted once by its `arr:` budget
  // component.
  int64_t StateBytes() const override;

 private:
  // The last row emitted for one accumulator position: every query of a
  // shared arrangement, one query of an owned one.
  struct EmitSlot {
    bool emitted = false;
    Row last_emitted;
  };

  // Builds the output row for a group from its row count and accumulators,
  // or nullopt when the group has no contributions.
  std::optional<Row> RowFromAccums(const Row& key, int64_t row_count,
                                   const std::vector<arrange::AccumCell>&
                                       accums) const;

  // Chooses the arrangement on first use: the candidate when it can attach
  // at the current consumed offset, else one of its own. Const because a
  // snapshot may be the operator's first use.
  void EnsureDecided() const;
  // Reads `owned` from now on, detaching a shared reader.
  void Own(std::unique_ptr<arrange::Arrangement> owned) const;
  std::unique_ptr<arrange::Arrangement> NewOwned() const;
  bool Shared() const { return arr_ != nullptr && arr_ != owned_.get(); }
  // A shared arrangement writes its reader record in real checkpoints;
  // everything else is written in the owned layout.
  Status Write(recovery::CheckpointWriter* w, bool canonical) const;

  std::vector<int> group_key_idx_;
  Schema input_schema_;
  std::vector<QueryId> query_ids_;  // position -> query id
  // Groups touched since the last EndExecution, in first-touch order.
  // `dirty_order_` drives emission; `dirty_seen_` is the O(1) membership
  // guard. An unordered_set alone is not enough: its iteration order
  // depends on bucket-count history, which a restored operator does not
  // share with the original.
  std::vector<Row> dirty_order_;
  std::unordered_set<Row, RowHasher> dirty_seen_;
  // One slot per accumulator position of every group this reader has
  // applied.
  std::unordered_map<Row, std::vector<EmitSlot>, RowHasher> emit_;

  // The catalog arrangement this operator may share (nullptr: ineligible),
  // the one it owns, and the one it reads (either; null until first use),
  // with its reader slot, the cumulative consumed-tuple offset, and the
  // upper bound of the chain window already metered. The choice is mutable
  // because a snapshot may be the operator's first use.
  arrange::Arrangement* candidate_ = nullptr;
  mutable std::unique_ptr<arrange::Arrangement> owned_;
  mutable arrange::Arrangement* arr_ = nullptr;
  mutable int reader_ = -1;
  int64_t version_ = 0;
  int64_t last_metered_version_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_AGGREGATE_H_
