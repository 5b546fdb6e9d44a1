// Arrangements (DESIGN.md §15): the one store of operator state. Every
// HashJoinOp build side and AggregateOp group map is an Arrangement, after
// *Shared Arrangements* (McSherry et al., PAPERS.md), where every stateful
// operator reads an arrangement and there is no second layout.
//
// An Arrangement stores, per key, a *base* state at `base_version` plus an
// ordered chain of versioned +w/−w deltas. It has one of two owners:
//  - the ArrangementCatalog, for a query-set-independent build that
//    several operators read (eligibility is decided by the operators, see
//    eligibility.h). Such an arrangement keeps one multiplicity or
//    accumulator set per key, standing for every sharing query. Readers
//    attach at a version (their cumulative consumed-tuple offset of the
//    build stream, which for eligible operators equals the scan leaf's
//    buffer offset) and read the base plus the chain entries at or below
//    their version. iShare's twist on compaction: per-reader pace cursors
//    bound exactly which versions can still be read, so the Compactor
//    folds chain prefixes below the minimum attached version — versions no
//    reader can still request — driven by slackness instead of coarse
//    frontier heuristics;
//  - one operator, which is its only reader. An *owned* arrangement keeps
//    one counter vector or accumulator set per query position of that
//    operator, applies tuples straight into the base (no other reader can
//    need an older version, so there is never a chain) and takes no lock.
//
// Both read the base in place whenever no chain entry is visible at the
// reader's version, and replay the visible chain onto a copy otherwise;
// either way the one update rule below produces the state the operator
// would have built alone.

#ifndef ISHARE_ARRANGE_ARRANGEMENT_H_
#define ISHARE_ARRANGE_ARRANGEMENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ishare/arrange/accum.h"
#include "ishare/common/hash_probe.h"
#include "ishare/common/query_set.h"
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

// A join build bucket: the stored rows of one key in probe order (insertion
// order evolved by swap-removes, which probe emission makes visible), each
// with `width` multiplicity counters: counts[i * width + p] is row i's
// count for position p.
struct Bucket {
  std::vector<Row> rows;
  std::vector<int64_t> counts;
};

// One position's aggregate state: the weighted number of contributing
// input tuples and one accumulator per AggSpec.
struct GroupAccums {
  int64_t row_count = 0;
  std::vector<AccumCell> accums;
};

// Open-addressing map from Row key to dense id in first-touch order, on
// the xx-mix probe loop it shares with FlatIndexI64 (common/hash_probe.h).
class FlatRowIndex {
 public:
  FlatRowIndex() : slots_(16, -1), mask_(15) {}

  int32_t FindOrInsert(Row key) {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, HashRow(key), &found,
                             [&](uint64_t, int32_t id) {
                               return keys_[static_cast<size_t>(id)] == key;
                             });
    if (found) return slots_[h];
    int32_t fresh = static_cast<int32_t>(keys_.size());
    slots_[h] = fresh;
    keys_.push_back(std::move(key));
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

// Everything needed to build (and rebuild after restore / churn) the state
// of one arrangement. Deep copies of the plan-node fields — plan trees are
// torn down and rebuilt across churn epochs while the catalog lives on.
struct ArrangementSpec {
  ArrangementKind kind = ArrangementKind::kJoinBuild;
  std::string signature;      // catalog key; query-set independent
  std::string table;          // source table name (diagnostics / JSON)
  std::vector<int> key_idx;   // key columns in the input schema
  // kAggGroups only:
  std::vector<AggSpec> aggs;  // copied AggSpecs (ExprPtr is shared)
  Schema input_schema;        // input schema (compiles agg args)
  // The owning operator's query positions; empty for a catalog
  // arrangement, whose single position serves every reader.
  std::vector<QueryId> query_ids;
};

// One versioned delta of the build stream. `version` is the stream offset
// *after* this tuple applies, so an entry is visible to a reader at V iff
// version <= V; chains hold versions in (base_version, applied_upto].
struct VersionedDelta {
  int64_t version = 0;
  Row row;
  int32_t weight = 1;
};

class Arrangement {
 public:
  // An owned arrangement's one reader, attached from construction.
  static constexpr int kOwner = 0;

  explicit Arrangement(ArrangementSpec spec);

  const ArrangementSpec& spec() const { return spec_; }
  bool owned() const { return !spec_.query_ids.empty(); }
  // Counters / accumulator sets per key: the owner's query count, or 1.
  size_t width() const { return owned() ? spec_.query_ids.size() : 1; }

  // ---- Readers (catalog arrangements) ----------------------------------
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
  // batch.size(); keys[i] is batch[i]'s key, extracted here when `keys` is
  // empty (an operator passes an owned arrangement the keys it already
  // extracted; a shared reader's batch is mostly dedup-skipped, so holding
  // its keys would only cost memory). Rows are moved, never copied. An
  // owned arrangement applies each tuple to the positions in its query set,
  // metering accumulator work into *state_work (OpWork::state units). A
  // catalog arrangement appends tuples past applied_upto to the per-key
  // chains and dedup-skips the rest (eligible build streams are identical
  // for every reader by construction); its accumulator work is metered by
  // each reader's Group fold instead.
  void Advance(int reader, DeltaBatch batch, std::vector<Row> keys = {},
               double* state_work = nullptr);

  // ---- Reads -----------------------------------------------------------
  // The join bucket of `key` at `version`, nullptr when it holds no row:
  // the base bucket itself when no chain entry is visible at `version`
  // (always, for an owned arrangement), else the base replayed forward
  // through the visible chain into *scratch. The base is only rewritten by
  // Compact and Restore, which run between executions, so the pointer
  // stays valid while readers of one wave apply concurrently.
  const Bucket* Probe(const Row& key, int64_t version, Bucket* scratch) const;
  // The positions of aggregate group `key` at `version`, in place or folded
  // into *scratch as in Probe. Folded chain entries with version above
  // `meter_above` are metered into *state_work in OpWork::state units per
  // single accumulator copy (the caller scales by its query count).
  const std::vector<GroupAccums>& Group(const Row& key, int64_t version,
                                        int64_t meter_above,
                                        std::vector<GroupAccums>* scratch,
                                        double* state_work) const;
  // Keys first touched at or before `version`, each with its
  // recovery::EncodeRowKey bytes, sorted by those bytes.
  std::vector<std::pair<std::string, Row>> KeysAt(int64_t version) const;

  // An owned arrangement holding this one's state at `version`, with one
  // position per `query_ids` entry, each starting from the shared position:
  // what a reader whose input diverged from the shared build stream reads
  // from then on (DESIGN.md §15.3).
  std::unique_ptr<Arrangement> Fork(int64_t version,
                                    std::vector<QueryId> query_ids) const;

  // Owned arrangements only: the base state of `key`, created empty on
  // first request, for an operator restoring its checkpoint.
  Bucket* MutableBucket(Row key);
  std::vector<GroupAccums>* MutableGroup(Row key);

  // ---- Compaction (catalog arrangements) -------------------------------
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
  // Deterministic byte accounting (ApproxRowBytes units). A catalog
  // arrangement counts keys, base states and chains — the `arr:` budget
  // component. An owned one counts its keys that hold state, rows,
  // counters and accumulators in the units of its operator's `state:`
  // component.
  int64_t StateBytes() const;

  // Lifetime stats, surfaced as `arrange.*` gauges by the catalog (kept as
  // plain members so Advance stays off the registry lock; checkpointed so
  // restored runs report monotone values).
  int64_t applied_tuples() const {
    auto lock = Lock();
    return applied_tuples_;
  }
  int64_t dedup_skipped() const {
    auto lock = Lock();
    return dedup_skipped_;
  }
  int64_t folded_total() const {
    auto lock = Lock();
    return folded_total_;
  }

  // ---- Checkpoint (catalog arrangements) -------------------------------
  // Deterministic serialization: keys in canonical (encoded-byte) order,
  // value maps sorted. Reader cursors are NOT serialized — operators own
  // them and re-attach during their own Restore. Owned arrangements are
  // serialized by their operators.
  void Snapshot(recovery::CheckpointWriter* w) const;
  Status Restore(recovery::CheckpointReader* r);

 private:
  struct KeyState {
    int64_t first_version = 0;  // version after the key's first tuple
    Bucket base_bucket;                   // kJoinBuild, at base_version
    std::vector<GroupAccums> base_groups;  // kAggGroups: width() positions
    std::vector<VersionedDelta> chain;     // catalog arrangements only
  };

  // Locks mu_ for a catalog arrangement; an owned one is only ever used by
  // its operator and takes no lock.
  std::unique_lock<std::mutex> Lock() const {
    return owned() ? std::unique_lock<std::mutex>()
                   : std::unique_lock<std::mutex>(mu_);
  }
  KeyState& Touch(Row key, int64_t first_version);
  // Applies one tuple to a key's base positions. Every position of a
  // catalog arrangement applies; an owned one applies the positions whose
  // query is in `qset`.
  void ApplyToBase(KeyState* ks, Row&& row, const QuerySet& qset,
                   int32_t weight, double* state_work);
  void ApplyToGroups(std::vector<GroupAccums>* groups, const Row& row,
                     const QuerySet& qset, int32_t weight,
                     double* state_work) const;
  static bool HasVisibleChain(const KeyState& ks, int64_t version);
  const Bucket* ProbeLocked(const KeyState& ks, int64_t version,
                            Bucket* scratch) const;
  const std::vector<GroupAccums>& GroupLocked(
      const KeyState& ks, int64_t version, int64_t meter_above,
      std::vector<GroupAccums>* scratch, double* state_work) const;
  void FoldKeyIntoBase(KeyState* ks, int64_t upto);
  int64_t CompactionBoundLocked() const;
  int64_t StateBytesLocked() const;

  ArrangementSpec spec_;
  std::vector<CompiledExpr> arg_exprs_;  // kAggGroups: per AggSpec
  std::vector<bool> has_arg_;
  // Evaluated arguments of the tuple being applied; only touched under mu_
  // or by an owned arrangement's sole reader.
  mutable std::vector<Value> argv_;

  mutable std::mutex mu_;
  FlatRowIndex index_;
  // Parallel to index_.keys(). A deque, so a base bucket's address survives
  // another reader inserting a key while a probe reads it.
  std::deque<KeyState> states_;
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

// Checkpoint codecs shared by arrangement blobs and operator checkpoints.
// A bucket is written with `width` counters per row (a one-position bucket
// repeats its counter); reading fails `r` on a row count the payload
// cannot hold or on a counter width other than `width`.
void WriteBucket(recovery::CheckpointWriter* w, const Bucket& b, size_t width);
void ReadBucket(recovery::CheckpointReader* r, size_t width, Bucket* b);
// Accumulator lists: a count, then each cell with its value map sorted.
// ReadAccums returns the count read (callers validate it).
void WriteAccums(recovery::CheckpointWriter* w,
                 const std::vector<AccumCell>& accums);
size_t ReadAccums(recovery::CheckpointReader* r,
                  std::vector<AccumCell>* accums);

// Lazy compaction at a pace boundary folds a key's version chain into its
// base only once the chain exceeds this many entries; zero-slack readers
// switch the whole arrangement to eager folding regardless.
inline constexpr int64_t kChainCompactThreshold = 64;

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

  // Compacts every arrangement at kChainCompactThreshold (called at pace
  // boundaries) and publishes budget components + obs gauges. Returns
  // total chain entries folded.
  int64_t CompactAtBoundary();

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
