// Physical operator interface for shared incremental execution (paper
// Sec. 2.3): operators process delta batches tagged with per-tuple query
// bitvectors and signed multiplicities, and meter their own OpWork. Scan,
// marking select (σ*), and project live here; stateful operators are in
// hash_join.h and aggregate.h.
//
// Ownership (DESIGN.md §12): a tuple is copied once on its way through a
// subplan — when a leaf reads it out of a shared DeltaBuffer. From there
// every operator takes its input batch by value and may reuse the rows:
// filters re-tag and drop in place, joins move new build rows into their
// state, and the driver moves the root's output into the subplan's buffer.

#ifndef ISHARE_EXEC_PHYS_OP_H_
#define ISHARE_EXEC_PHYS_OP_H_

#include <memory>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/exec/metrics.h"
#include "ishare/plan/plan.h"
#include "ishare/recovery/serializer.h"
#include "ishare/storage/delta.h"

namespace ishare {

// Base class for physical operators implementing shared incremental
// execution (Sec. 2.3). An operator is fed delta batches from its children
// (one call per child per incremental execution) and returns its own output
// deltas. Blocking operators (Aggregate) buffer updates and release them
// from EndExecution, which the driver calls once per incremental execution
// after all child input has been pushed.
class PhysOp {
 public:
  explicit PhysOp(const PlanNode* node) : node_(node) {}
  virtual ~PhysOp() = default;

  PhysOp(const PhysOp&) = delete;
  PhysOp& operator=(const PhysOp&) = delete;

  const PlanNode* node() const { return node_; }

  // Processes one delta batch arriving from child `child_idx`. The batch
  // is the operator's to consume: it may re-tag or drop its tuples or
  // move out of them, and may return `in` itself as the output.
  virtual DeltaBatch Process(int child_idx, DeltaBatch in) = 0;

  // Flushes any output held back until the end of the current incremental
  // execution. Default: nothing held back.
  virtual DeltaBatch EndExecution() { return {}; }

  // Cumulative work performed by this operator since construction.
  const OpWork& work() const { return work_; }

  // Approximate bytes of cross-execution state this operator holds (join
  // build sides, aggregate groups), in the same deterministic accounting
  // units as ApproxRowBytes. Stateless operators hold none. The flow
  // layer's memory arbiter (DESIGN.md §9) charges these against the
  // budget after every execution.
  virtual int64_t StateBytes() const { return 0; }

  // Checkpoint hooks (DESIGN.md §8). The default covers stateless
  // operators, whose only cross-execution state is the work meter;
  // stateful operators (HashJoinOp, AggregateOp) override and must call
  // the work helpers too. Restore(Snapshot(op)) must make the operator's
  // future outputs bit-identical to the original's.
  virtual Status Snapshot(recovery::CheckpointWriter* w) const {
    SnapshotWork(w);
    return Status::OK();
  }
  virtual Status Restore(recovery::CheckpointReader* r) {
    RestoreWork(r);
    return r->status();
  }

  // Serialization for state fingerprints (DESIGN.md §15.5): must write the
  // same bytes whether the operator's state sits in a shared arrangement or
  // in one it owns. Only operators that can share distinguish the two;
  // everything else has one layout, so the default delegates.
  virtual Status SnapshotCanonical(recovery::CheckpointWriter* w) const {
    return Snapshot(w);
  }

  // Pending input bound for this operator's subplan was discarded by load
  // shedding: the operator's consumed-tuple offset permanently diverges
  // from its build stream, so operators reading a shared arrangement fork
  // it into one of their own (DESIGN.md §15.3). Default: nothing to do.
  virtual void OnInputDiscarded() {}

  // Slack hint for the owning subplan, from the adaptive runtime's pace
  // model (seconds of remaining slackness, <= ~0 when the subplan runs at
  // its deadline). Arrangement-backed operators forward it to drive
  // compaction eagerness; everything else ignores it.
  virtual void SetSlackHint(double slack) { (void)slack; }

 protected:
  void SnapshotWork(recovery::CheckpointWriter* w) const {
    w->F64(work_.in);
    w->F64(work_.out);
    w->F64(work_.state);
  }
  void RestoreWork(recovery::CheckpointReader* r) {
    work_.in = r->F64();
    work_.out = r->F64();
    work_.state = r->F64();
  }

  const PlanNode* node_;
  OpWork work_;
};

// A subplan leaf (kScan / kSubplanInput). Its input is a view of a
// DeltaBuffer that other consumers read too, so it cannot own it: Read
// copies out exactly the tuples this subplan needs — the one copy a tuple
// pays in a subplan. SubplanExecutor drives leaves through Read; Process
// (an already-owned batch, as in unit tests) is the same operation.
class LeafOp : public PhysOp {
 public:
  using PhysOp::PhysOp;
  virtual DeltaBatch Read(DeltaSpan in) = 0;
  DeltaBatch Process(int child_idx, DeltaBatch in) final;
};

// Pass-through that re-tags scanned base tuples with the scan's query set.
class ScanOp : public LeafOp {
 public:
  explicit ScanOp(const PlanNode* node) : LeafOp(node) {}
  DeltaBatch Read(DeltaSpan in) override;
};

// Masks tuples pulled from a child subplan's buffer down to this subplan's
// query set; drops tuples that no longer matter (the σ_filter of Fig. 2)
// without copying them.
class SubplanInputOp : public LeafOp {
 public:
  explicit SubplanInputOp(const PlanNode* node) : LeafOp(node) {}
  DeltaBatch Read(DeltaSpan in) override;
};

// Shared select: evaluates each distinct predicate once per tuple and
// clears the query bits whose predicate rejects the tuple (marking select
// σ*). Tuples with no surviving bits are dropped. Works in place on its
// input batch: survivors keep their rows, only query sets change.
class FilterOp : public PhysOp {
 public:
  FilterOp(const PlanNode* node, const Schema& input_schema);
  DeltaBatch Process(int child_idx, DeltaBatch in) override;

 private:
  struct PredGroup {
    CompiledExpr pred;
    QuerySet queries;
  };
  std::vector<PredGroup> groups_;
};

// Computes the merged projection list (union over sharing queries).
class ProjectOp : public PhysOp {
 public:
  ProjectOp(const PlanNode* node, const Schema& input_schema);
  DeltaBatch Process(int child_idx, DeltaBatch in) override;

 private:
  std::vector<CompiledExpr> exprs_;
};

// Builds the physical operator tree for a subplan's plan tree. Leaves
// (kScan / kSubplanInput) become ScanOp / SubplanInputOp fed by the driver.
// The options overload lets stateful operators see ExecOptions::arrange
// and read shared arrangements; the plain overload gives every stateful
// operator arrangements of its own (equivalent to a null catalog).
std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node);
std::unique_ptr<PhysOp> CreatePhysOp(const PlanNode* node,
                                     const ExecOptions& opts);

}  // namespace ishare

#endif  // ISHARE_EXEC_PHYS_OP_H_
