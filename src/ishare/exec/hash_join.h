// Symmetric incremental hash join (inner/semi/anti) with per-query
// multiplicity state — the join side of shared incremental execution
// (paper Sec. 2.3). Join state growth across incremental executions is
// what makes eager paces expensive on join-heavy subplans; the cost
// model's analytic twin lives in cost/simulator.h.

#ifndef ISHARE_EXEC_HASH_JOIN_H_
#define ISHARE_EXEC_HASH_JOIN_H_

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
// Inner join: a delta batch from one side first updates that side's state,
// then probes the other side's current state, so over one incremental
// execution the emitted delta is exactly ΔL ⋈ R ∪ (L + ΔL) ⋈ ΔR.
//
// Left-semi / left-anti joins keep per-query right match counts per key;
// when a right delta moves a (key, query) count across zero, the affected
// left tuples are (re-)emitted or retracted.
//
// Shared arrangements (DESIGN.md §15): with ArrangeOptions carrying a
// catalog, an *eligible* build side — inner join, side fed directly by a
// scan whose query set covers the join's — holds an ArrangementReader
// instead of a private SideState. The side's deltas advance the shared
// versioned store; probes fold the probed key's bucket at this reader's
// version into the exact private bucket (same entry order, same
// multiplicities), so probe/emit/snapshot logic is unchanged and results
// stay bit-exact. Semi/anti joins and non-scan-fed sides stay private.
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(const PlanNode* node, const Schema& left_schema,
             const Schema& right_schema,
             const ExecOptions::ArrangeOptions& arrange = {});
  ~HashJoinOp() override;

  // New build-side rows move from `in` into the side's state; a row the
  // state already holds only updates its counters.
  DeltaBatch Process(int child_idx, DeltaBatch in) override;

  // Morsel-driven parallelism (DESIGN.md §10), inner joins only: the
  // build is hash-partitioned by join key (each worker owns the keys
  // hashing to its partition, so bucket mutation is disjoint; map
  // structure mutation stays serial in pre/post passes), and the probe
  // fans out over contiguous morsels with per-tuple output slots
  // concatenated in input order. Bit-exact with serial because per-key
  // update order and the emitted tuple order are both preserved.
  // Semi/anti joins keep the serial path: their right-delta handling
  // re-emits stored left tuples across keys, which does not decompose by
  // input partition (out of scope here; see DESIGN.md §10).
  // Joins with an arranged side also stay serial: their build goes
  // through the shared arrangement, whose apply order must match the
  // input stream exactly.
  void BindScheduler(sched::WorkerPool* pool,
                     const sched::SchedulerOptions& opts) override;

  // Build-side state is checkpointed with keys in canonical (encoded-byte)
  // order so the snapshot is independent of hash-map bucket history, while
  // each per-key bucket keeps its insertion order — probe emission iterates
  // buckets, so that order is behaviorally visible and must survive.
  // Arranged sides write a compact record (flag + reader version) — the
  // shared contents live in the catalog's own checkpoint blob.
  Status Snapshot(recovery::CheckpointWriter* w) const override;
  Status Restore(recovery::CheckpointReader* r) override;
  // Folds arranged sides into the private layout and writes exactly the
  // bytes the private Snapshot would (DESIGN.md §15.5).
  Status SnapshotCanonical(recovery::CheckpointWriter* w) const override;

  void OnInputDiscarded() override;
  void SetSlackHint(double slack) override;

  // Current number of stored rows, for tests and diagnostics (folds
  // arranged sides on demand).
  int64_t LeftStateSize() const;
  int64_t RightStateSize() const;

  // True when `side` (0 = left, 1 = right) currently reads from a shared
  // arrangement.
  bool SideArranged(int side) const;

  // Approximate bytes of *privately held* state; arranged sides are
  // accounted once by their arrangement's `arr:` budget component.
  int64_t StateBytes() const override;

 private:
  using Entry = arrange::FoldedEntry;  // {row, per-query counts}
  using SideState = std::unordered_map<Row, std::vector<Entry>, RowHasher>;
  // Per-key, per-query count of right tuples (semi/anti bookkeeping).
  using MatchCounts =
      std::unordered_map<Row, std::vector<int64_t>, RowHasher>;

  DeltaBatch ProcessInner(int child_idx, DeltaBatch* in);
  DeltaBatch ProcessInnerParallel(SideState* own, SideState* other,
                                  int64_t* own_entries,
                                  const std::vector<int>& own_keys,
                                  bool from_left, DeltaBatch* in);
  DeltaBatch ProcessSemiAnti(int child_idx, DeltaBatch* in);

  // Applies the tuple's weight to the matching stored row's per-query
  // counters, creating the entry (from `t.row`, moved) as needed;
  // swap-removes an entry whose counts all reach zero. The caller erases
  // the key once its bucket empties (serially — the parallel build defers
  // that to a post-pass).
  void UpdateBucket(std::vector<Entry>* bucket, DeltaTuple* t,
                    int64_t* entry_counter);
  void UpdateState(SideState* state, Row key, DeltaTuple* t,
                   int64_t* entry_counter);

  // Emits join results of `t` against entry `e`, grouping queries with
  // equal contribution weights into single delta tuples. `work` is
  // &work_ on the serial path, a per-morsel partial on the parallel one.
  void EmitMatches(const DeltaTuple& t, const Entry& e, bool t_is_left,
                   OpWork* work, DeltaBatch* out);

  // Resolves the arranged-vs-private decision per side on first use
  // (attach at the current consumed offset; fall private on failure).
  // Const because snapshots and size queries may be the first use.
  void EnsureDecided() const;
  // Folds arranged side `s` into its private map and detaches.
  void MaterializeSide(int s);
  // Serializes one private-layout side (keys canonical, buckets in order).
  static void SnapshotSide(recovery::CheckpointWriter* w,
                           const SideState& state);
  Status RestoreSide(recovery::CheckpointReader* r, SideState* state);

  int QueryPos(QueryId q) const {
    DCHECK(q >= 0 && static_cast<size_t>(q) < query_pos_.size());
    int pos = query_pos_[static_cast<size_t>(q)];
    DCHECK(pos >= 0) << "query q" << q << " not in join's query set";
    return pos;
  }

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;

  SideState left_state_;
  SideState right_state_;
  int64_t left_entries_ = 0;
  int64_t right_entries_ = 0;

  // Semi/anti only.
  MatchCounts right_counts_;

  std::vector<QueryId> query_ids_;  // position -> query id
  std::vector<int> query_pos_;      // query id -> position, sized to max id

  // Shared arrangements: per side, the candidate arrangement resolved at
  // construction (nullptr = ineligible), the attached arrangement this
  // side reads (nullptr = private side), its reader slot, and the side's
  // cumulative consumed-tuple offset (the reader's version). The decision
  // members are mutable because a snapshot or size query may be the
  // operator's first use.
  arrange::Arrangement* cand_[2] = {nullptr, nullptr};
  mutable bool decided_ = false;
  mutable arrange::Arrangement* arr_[2] = {nullptr, nullptr};
  mutable int reader_[2] = {-1, -1};
  int64_t version_[2] = {0, 0};

  // Morsel parallelism (nullptr / ignored when serial).
  sched::WorkerPool* pool_ = nullptr;
  int64_t morsel_min_tuples_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_EXEC_HASH_JOIN_H_
