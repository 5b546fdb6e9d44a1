// Shared arrangements (DESIGN.md §15): versioned, key-indexed, multi-reader
// operator state, after *Shared Arrangements* (McSherry et al., PAPERS.md),
// with iShare's twist — per-reader pace cursors bound exactly which versions
// can still be read, so compaction is driven by slackness instead of coarse
// frontier heuristics.
//
// An Arrangement stores, per key, a *base* state (private-operator layout at
// `base_version`) plus an ordered chain of versioned +w/−w deltas. Readers
// attach at a version (their cumulative consumed-tuple offset of the build
// stream, which for eligible operators equals the scan leaf's buffer
// offset) and *fold*: replay the chain prefix at or below their version
// onto a copy of the base with the exact private update rules, yielding
// bit-identical private state. The slackness-aware Compactor folds chain
// prefixes below the minimum attached reader version into the base —
// versions no reader can still request.
//
// Eligibility (decided by the operators, see exec/): the build input must
// be query-set independent — fed directly by a scan whose query set covers
// the operator's — so a single multiplicity / accumulator per key stands
// for every per-query copy the private layout kept.

#ifndef ISHARE_ARRANGE_ARRANGEMENT_H_
#define ISHARE_ARRANGE_ARRANGEMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/arrange/accum.h"
#include "ishare/common/hash_probe.h"
#include "ishare/common/status.h"
#include "ishare/expr/expr.h"
#include "ishare/plan/plan.h"
#include "ishare/recovery/serializer.h"
#include "ishare/storage/delta.h"
#include "ishare/types/schema.h"
#include "ishare/types/value.h"

namespace ishare {

namespace flow {
class MemoryBudget;
}  // namespace flow

namespace arrange {

// One stored row of a join build side in the private operator's layout:
// per-query multiplicity counters. Arrangement folds materialize these
// transiently so HashJoinOp's probe/emit/snapshot code runs unchanged.
struct FoldedEntry {
  Row row;
  std::vector<int64_t> counts;  // per query position
};

// Open-addressing map from Row key to dense id in first-touch order, on
// the xx-mix probe loop it shares with FlatIndexI64 (common/hash_probe.h).
class FlatRowIndex {
 public:
  FlatRowIndex() : slots_(16, -1), mask_(15) {}

  int32_t FindOrInsert(const Row& key) {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, HashRow(key), &found,
                             [&](uint64_t, int32_t id) {
                               return keys_[static_cast<size_t>(id)] == key;
                             });
    if (found) return slots_[h];
    int32_t fresh = static_cast<int32_t>(keys_.size());
    slots_[h] = fresh;
    keys_.push_back(key);
    if (keys_.size() * 10 >= slots_.size() * 7) Grow();
    return fresh;
  }

  int32_t Find(const Row& key) const {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, HashRow(key), &found,
                             [&](uint64_t, int32_t id) {
                               return keys_[static_cast<size_t>(id)] == key;
                             });
    return found ? slots_[h] : -1;
  }

  int64_t size() const { return static_cast<int64_t>(keys_.size()); }
  const std::vector<Row>& keys() const { return keys_; }

  void Clear() {
    keys_.clear();
    slots_.assign(slots_.size(), -1);
  }

 private:
  void Grow();

  std::vector<int32_t> slots_;  // -1 = empty, else dense id
  std::vector<Row> keys_;       // dense id -> key
  uint64_t mask_;
};

enum class ArrangementKind { kJoinBuild, kAggGroups };

// Everything needed to build (and rebuild after restore / churn) the
// shared state for one signature. Deep copies of the plan-node fields —
// plan trees are torn down and rebuilt across churn epochs while the
// catalog lives on.
struct ArrangementSpec {
  ArrangementKind kind = ArrangementKind::kJoinBuild;
  std::string signature;      // catalog key; query-set independent
  std::string table;          // source table name (diagnostics / JSON)
  std::vector<int> key_idx;   // key columns in the scan output schema
  // kAggGroups only:
  std::vector<AggSpec> aggs;  // copied AggSpecs (ExprPtr is shared)
  Schema input_schema;        // scan output schema (compiles agg args)
};

// One versioned delta of the build stream. `version` is the stream offset
// *after* this tuple applies, so an entry is visible to a reader at V iff
// version <= V; chains hold versions in (base_version, applied_upto].
struct VersionedDelta {
  int64_t version = 0;
  Row row;
  int32_t weight = 1;
};

// A shared, versioned, multi-reader build state for one signature. All
// public methods lock an internal mutex: subplans sharing an arrangement
// may execute in the same scheduler wave.
class Arrangement {
 public:
  explicit Arrangement(ArrangementSpec spec);

  const ArrangementSpec& spec() const { return spec_; }

  // ---- Readers ---------------------------------------------------------
  // Attaches a reader cursor at `version`. Fails (returns -1) unless
  // base_version <= version <= applied_upto — i.e. the requested version is
  // still readable and already fully applied. A fresh operator attaches at
  // 0 (valid while the arrangement is uncompacted); a restored operator
  // re-attaches at its checkpointed version, which the compaction invariant
  // (base <= min attached version at snapshot time) keeps readable.
  int Attach(int64_t version);
  void Detach(int reader);
  // Moves an attached reader's cursor (restore / churn re-attach). Returns
  // false if the target version is outside [base_version, applied_upto].
  bool SetReaderVersion(int reader, int64_t version);
  // Slack hint from the optimizer (AdaptiveExecutor); <= ~0 marks the
  // reader zero-slack, switching this arrangement to eager compaction.
  void SetReaderSlack(int reader, double slack);
  int64_t reader_version(int reader) const;

  // ---- Apply -----------------------------------------------------------
  // Consumes `batch` on behalf of `reader`, advancing its cursor by
  // batch.size(). The first reader past applied_upto appends the new
  // tuples to the per-key chains; lagging readers dedup-skip (eligible
  // build streams are identical for every reader by construction).
  void Advance(int reader, DeltaSpan batch);

  // ---- Folds (join) ----------------------------------------------------
  // Private-format bucket of `key` at `version`: base bucket replayed
  // forward through the visible chain suffix with the exact swap-remove
  // semantics of HashJoinOp::UpdateBucket. Empty result == key absent from
  // the private map. Single multiplicities expand to `counts_width`-wide
  // per-query counters.
  void FoldBucket(const Row& key, int64_t version, size_t counts_width,
                  std::vector<FoldedEntry>* out) const;
  // Folds every key with a non-empty bucket at `version` into a
  // private-format side map, plus the total entry count (the operator's
  // entries counter).
  void FoldSide(int64_t version, size_t counts_width,
                std::unordered_map<Row, std::vector<FoldedEntry>, RowHasher>*
                    out,
                int64_t* entry_count) const;

  // ---- Folds (agg) -----------------------------------------------------
  // Folds `key`'s accumulators at `version` into `out` (one AccumCell per
  // AggSpec) and returns the weighted row count. Chain entries with
  // version > meter_above are metered into *state_work in OpWork::state
  // units per single accumulator copy (the caller scales by its query
  // count); pass meter_above >= version to replay silently.
  int64_t FoldAccums(const Row& key, int64_t version, int64_t meter_above,
                     std::vector<AccumCell>* out, double* state_work) const;
  // All keys first touched at or before `version` (the private groups_ key
  // set, which never shrinks), sorted by recovery::EncodeRowKey.
  std::vector<Row> KeysAt(int64_t version) const;

  // ---- Compaction ------------------------------------------------------
  // Folds chain prefixes at or below the minimum attached reader version
  // (applied_upto when no readers) into the base states. Eager — every
  // chain — when any attached reader is zero-slack or none are attached;
  // lazy otherwise (only chains longer than `chain_threshold`). Returns
  // the number of chain entries folded away.
  int64_t Compact(int64_t chain_threshold);

  int64_t base_version() const;
  int64_t applied_upto() const;
  int num_attached() const;
  int64_t num_keys() const;
  int64_t MaxChainLength() const;
  int64_t TotalChainLength() const;
  // Deterministic byte accounting (ApproxRowBytes units) of keys, base
  // states and chains — the `arr:` budget component.
  int64_t StateBytes() const;

  // Lifetime stats, surfaced as `arrange.*` gauges by the catalog (kept as
  // plain members so Advance stays off the registry lock; checkpointed so
  // restored runs report monotone values).
  int64_t applied_tuples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_tuples_;
  }
  int64_t dedup_skipped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dedup_skipped_;
  }
  int64_t folded_total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return folded_total_;
  }

  // ---- Checkpoint ------------------------------------------------------
  // Deterministic serialization: keys in canonical (encoded-byte) order,
  // value maps sorted. Reader cursors are NOT serialized — operators own
  // them and re-attach during their own Restore.
  void Snapshot(recovery::CheckpointWriter* w) const;
  Status Restore(recovery::CheckpointReader* r);

 private:
  struct KeyState {
    int64_t first_version = 0;  // version after the key's first tuple
    // kJoinBuild: base bucket at base_version, in private bucket order
    // (insertion order evolved by swap-removes).
    std::vector<std::pair<Row, int64_t>> base_bucket;  // (row, multiplicity)
    // kAggGroups: base accumulators at base_version.
    int64_t base_row_count = 0;
    std::vector<AccumCell> base_accums;
    std::vector<VersionedDelta> chain;
  };

  // Replays one delta onto a single-multiplicity bucket with the exact
  // semantics of HashJoinOp::UpdateBucket (create-on-insert, swap-remove
  // on zero).
  static void ReplayOntoBucket(std::vector<std::pair<Row, int64_t>>* bucket,
                               const Row& row, int32_t weight);
  // Replays one delta onto base accumulators (metered when work != nullptr).
  void ReplayOntoAccums(KeyState* ks, const Row& row, int32_t weight,
                        double* state_work) const;
  void FoldKeyIntoBase(KeyState* ks, int64_t upto);
  int64_t CompactionBoundLocked() const;
  int64_t StateBytesLocked() const;

  ArrangementSpec spec_;
  std::vector<CompiledExpr> arg_exprs_;  // kAggGroups: per AggSpec
  std::vector<bool> has_arg_;

  mutable std::mutex mu_;
  FlatRowIndex index_;
  std::vector<KeyState> states_;  // parallel to index_.keys()
  int64_t base_version_ = 0;
  int64_t applied_upto_ = 0;
  int64_t applied_tuples_ = 0;
  int64_t dedup_skipped_ = 0;
  int64_t folded_total_ = 0;

  struct ReaderSlot {
    bool attached = false;
    int64_t version = 0;
    double slack = 1.0;
  };
  std::vector<ReaderSlot> readers_;
};

// Registry of arrangements keyed by query-set-independent signature, with
// budget publication (`arr:` components), obs counters (`arrange.*`), and
// deterministic whole-catalog checkpointing. Owned by the harness/test and
// passed to executors via ExecOptions::arrange.catalog; must outlive every
// executor that attaches to it.
class ArrangementCatalog {
 public:
  ArrangementCatalog() = default;
  ArrangementCatalog(const ArrangementCatalog&) = delete;
  ArrangementCatalog& operator=(const ArrangementCatalog&) = delete;

  // Returns the arrangement for `spec.signature`, creating it on first
  // request. The spec of an existing arrangement is not revalidated —
  // signatures encode every query-set-independent build parameter.
  Arrangement* GetOrCreate(const ArrangementSpec& spec);
  // nullptr when the signature has no arrangement.
  Arrangement* Find(const std::string& signature) const;

  // Compacts every arrangement (called at pace boundaries) and publishes
  // budget components + obs gauges. Returns total chain entries folded.
  int64_t CompactAtBoundary(int64_t chain_threshold);

  // Attaches the memory arbiter; each arrangement publishes an
  // "arr:<signature>" component. Idempotent for the same budget.
  void AttachBudget(flow::MemoryBudget* budget);

  int num_arrangements() const;
  int64_t TotalStateBytes() const;
  std::vector<std::string> Signatures() const;  // sorted

  // Deterministic catalog checkpoint: arrangements in signature order.
  // Restore requires every checkpointed signature to already exist (the
  // executor constructs operators — which GetOrCreate their arrangements —
  // before restoring state into them); contents are replaced wholesale,
  // attached reader cursors are untouched (operators re-attach in their
  // own Restore, which runs after this).
  Status Snapshot(recovery::CheckpointWriter* w) const;
  Status Restore(recovery::CheckpointReader* r);

 private:
  void PublishLocked();

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Arrangement>> by_sig_;
  flow::MemoryBudget* budget_ = nullptr;
  std::map<std::string, int> budget_component_;  // signature -> component id
};

}  // namespace arrange
}  // namespace ishare

#endif  // ISHARE_ARRANGE_ARRANGEMENT_H_
