// Symmetric incremental hash join (inner/semi/anti) with per-query
// multiplicity state — the join side of shared incremental execution
// (paper Sec. 2.3). Join state growth across incremental executions is
// what makes eager paces expensive on join-heavy subplans; the cost
// model's analytic twin lives in cost/simulator.h.

#ifndef ISHARE_EXEC_HASH_JOIN_H_
#define ISHARE_EXEC_HASH_JOIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "ishare/arrange/arrangement.h"
#include "ishare/exec/phys_op.h"

namespace ishare {

// Symmetric incremental hash join with SharedDB query-set annotations.
//
// State layout: per side, key -> bucket of stored rows, each row carrying
// one multiplicity counter *per sharing query*. Per-query counters are
// required because upstream operators (notably shared aggregates) emit
// deltas whose query sets can be narrower than the sets under which the
// matching rows were first inserted.
//
// Inner join: a delta batch from one side probes the other side's current
// state and then updates its own, so over one incremental execution the
// emitted delta is exactly ΔL ⋈ R ∪ (L + ΔL) ⋈ ΔR.
//
// Left-semi / left-anti joins keep per-query right match counts per key;
// when a right delta moves a (key, query) count across zero, the affected
// left tuples are (re-)emitted or retracted.
//
// Every side's rows live in an arrangement (DESIGN.md §15). With
// ArrangeOptions carrying a catalog, an *eligible* build side — inner
// join, side fed directly by a scan whose query set covers the join's —
// reads the catalog's shared arrangement, whose one multiplicity per row
// stands for all of the join's queries. Every other side owns a one-reader
// arrangement with a counter per query.
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(const PlanNode* node, const Schema& left_schema,
             const Schema& right_schema,
             const ExecOptions::ArrangeOptions& arrange = {});
  ~HashJoinOp() override;

  // New build-side rows move from `in` into the side's arrangement; a row
  // the state already holds only updates its counters.
  DeltaBatch Process(int child_idx, DeltaBatch in) override;

  // Build-side state is checkpointed with keys in canonical (encoded-byte)
  // order so the snapshot is independent of hash-map bucket history, while
  // each per-key bucket keeps its insertion order — probe emission iterates
  // buckets, so that order is behaviorally visible and must survive.
  // Shared sides write only their reader version — the shared contents
  // live in the catalog's own checkpoint blob.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;
  // Writes every side in the owned layout, a shared side's one counter per
  // row repeated for each query (DESIGN.md §15.5).
  Status SnapshotCanonical(recovery::CheckpointWriter* w) const override;

  // Forks shared sides into owned arrangements (DESIGN.md §15.3).
  void OnInputDiscarded() override;
  void SetSlackHint(double slack) override;

  // Current number of stored left rows, for tests and diagnostics.
  int64_t LeftStateSize() const;

  // Approximate bytes of owned state; shared sides are accounted once by
  // their arrangement's `arr:` budget component.
  int64_t StateBytes() const override;

 private:
  // Per-key, per-query count of right tuples (semi/anti bookkeeping).
  using MatchCounts =
      std::unordered_map<Row, std::vector<int64_t>, RowHasher>;

  // One build side. `arr` is the catalog arrangement it shares or the one
  // it owns, chosen on first use: a restored operator must attach at its
  // checkpointed version, not at 0.
  struct Side {
    std::vector<int> key_idx;
    arrange::Arrangement* candidate = nullptr;  // nullptr: ineligible
    std::unique_ptr<arrange::Arrangement> owned;
    arrange::Arrangement* arr = nullptr;
    int reader = -1;
    int64_t version = 0;  // tuples this side has consumed
    bool shared() const { return arr != nullptr && arr != owned.get(); }
  };

  DeltaBatch ProcessInner(int own, DeltaBatch in);
  DeltaBatch ProcessSemiAnti(int child_idx, DeltaBatch in);
  // Moves `in` into side `s`; keys[i] is in[i]'s join key.
  void Apply(int s, DeltaBatch in, std::vector<Row> keys);

  // Emits join results of `t` against stored `row` with per-position
  // counts `counts`, grouping queries with equal contribution weights into
  // single delta tuples.
  void EmitMatches(const DeltaTuple& t, const Row& row, const int64_t* counts,
                   size_t width, bool t_is_left, DeltaBatch* out);

  // Chooses each undecided side's arrangement: the candidate when it can
  // attach at the side's version, else one of its own. Const because
  // snapshots and size queries may be the first use.
  void EnsureDecided() const;
  // Makes side `s` read `owned` from now on, detaching a shared reader.
  void Own(int s, std::unique_ptr<arrange::Arrangement> owned) const;
  std::unique_ptr<arrange::Arrangement> NewOwned(int s) const;
  // Shared sides write their version in real checkpoints; everything else
  // is written in the owned layout.
  Status Write(recovery::CheckpointWriter* w, bool canonical) const;
  // Writes side `s` in the owned layout; returns its stored-row count.
  int64_t WriteSide(recovery::CheckpointWriter* w, int s) const;

  int QueryPos(QueryId q) const {
    DCHECK(q >= 0 && static_cast<size_t>(q) < query_pos_.size());
    int pos = query_pos_[static_cast<size_t>(q)];
    DCHECK(pos >= 0) << "query q" << q << " not in join's query set";
    return pos;
  }
  // A stored row's count for query `q`: one position stands for all.
  int64_t CountFor(const int64_t* counts, size_t width, QueryId q) const {
    return counts[width == 1 ? 0 : QueryPos(q)];
  }

  mutable Side sides_[2];

  // Semi/anti only.
  MatchCounts right_counts_;

  std::vector<QueryId> query_ids_;  // position -> query id
  std::vector<int> query_pos_;      // query id -> position, sized to max id
};

}  // namespace ishare

#endif  // ISHARE_EXEC_HASH_JOIN_H_
