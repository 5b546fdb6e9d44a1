#include "ishare/arrange/arrangement.h"

#include <algorithm>

#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"

namespace ishare::arrange {

namespace {

constexpr double kZeroSlackEps = 1e-9;

// The fixed units of an owned arrangement's `state:` accounting, in which
// memory budgets and recorded state-bytes figures are expressed: a 48-byte
// record per stored join row beside its row and counters, and per
// aggregate group its key twice plus a 64-byte record per query position
// beside the position's accumulators (the operator adds the position's
// last emitted row).
constexpr int64_t kRowRecordBytes = 48;
constexpr int64_t kPositionRecordBytes = 64;

std::string EncodeValueKey(const Value& v) {
  recovery::CheckpointWriter w;
  recovery::WriteValue(&w, v);
  return w.Take();
}

// The one join-state update rule, for both owners: find the stored row
// (creating it with zero counters on an insert), add `weight` to every
// position `applies` selects, and swap-remove the row once all its
// counters are zero. Insertion and swap-remove order are both visible
// through probe emission.
template <typename RowT, typename AppliesFn>
void ApplyToBucket(Bucket* b, size_t width, RowT&& row, int32_t weight,
                  AppliesFn applies) {
  size_t i = 0;
  while (i < b->rows.size() && !(b->rows[i] == row)) ++i;
  if (i == b->rows.size()) {
    CHECK_GT(weight, 0) << "delete of a row absent from join state";
    b->rows.push_back(std::forward<RowT>(row));
    b->counts.resize(b->counts.size() + width, 0);
  }
  int64_t* counts = &b->counts[i * width];
  bool all_zero = true;
  for (size_t p = 0; p < width; ++p) {
    if (applies(p)) {
      counts[p] += weight;
      CHECK_GE(counts[p], 0) << "negative multiplicity in join state";
    }
    if (counts[p] != 0) all_zero = false;
  }
  if (!all_zero) return;
  const size_t last = b->rows.size() - 1;
  if (i != last) {
    b->rows[i] = std::move(b->rows[last]);
    std::copy_n(b->counts.begin() + static_cast<std::ptrdiff_t>(last * width),
                width,
                b->counts.begin() + static_cast<std::ptrdiff_t>(i * width));
  }
  b->rows.pop_back();
  b->counts.resize(last * width);
}

}  // namespace

void FlatRowIndex::Grow() {
  size_t cap = slots_.size() * 2;
  slots_.assign(cap, -1);
  mask_ = static_cast<uint64_t>(cap - 1);
  for (size_t id = 0; id < keys_.size(); ++id) {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, HashRow(keys_[id]), &found,
                             [](uint64_t, int32_t) { return false; });
    CHECK(!found);
    slots_[h] = static_cast<int32_t>(id);
  }
}

Arrangement::Arrangement(ArrangementSpec spec) : spec_(std::move(spec)) {
  if (spec_.kind == ArrangementKind::kAggGroups) {
    for (const AggSpec& a : spec_.aggs) {
      if (a.arg != nullptr) {
        arg_exprs_.push_back(CompiledExpr::Compile(a.arg, spec_.input_schema));
        has_arg_.push_back(true);
      } else {
        arg_exprs_.emplace_back();
        has_arg_.push_back(false);
      }
    }
    argv_.resize(spec_.aggs.size());
  }
  if (owned()) readers_.push_back(ReaderSlot{true, 0, 1.0});
}

int Arrangement::Attach(int64_t version) {
  auto lock = Lock();
  if (version < base_version_ || version > applied_upto_) return -1;
  int slot = -1;
  for (size_t i = 0; i < readers_.size(); ++i) {
    if (!readers_[i].attached) {
      slot = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0) {
    slot = static_cast<int>(readers_.size());
    readers_.emplace_back();
  }
  readers_[static_cast<size_t>(slot)] = ReaderSlot{true, version, 1.0};
  obs::Registry().GetCounter("arrange.reader.attach").Add(1);
  return slot;
}

void Arrangement::Detach(int reader) {
  auto lock = Lock();
  if (reader < 0 || static_cast<size_t>(reader) >= readers_.size()) return;
  if (!readers_[static_cast<size_t>(reader)].attached) return;
  readers_[static_cast<size_t>(reader)] = ReaderSlot{};
  obs::Registry().GetCounter("arrange.reader.detach").Add(1);
}

bool Arrangement::SetReaderVersion(int reader, int64_t version) {
  auto lock = Lock();
  CHECK(reader >= 0 && static_cast<size_t>(reader) < readers_.size() &&
        readers_[static_cast<size_t>(reader)].attached);
  if (version < base_version_ || version > applied_upto_) return false;
  readers_[static_cast<size_t>(reader)].version = version;
  return true;
}

void Arrangement::SetReaderSlack(int reader, double slack) {
  auto lock = Lock();
  if (reader < 0 || static_cast<size_t>(reader) >= readers_.size()) return;
  readers_[static_cast<size_t>(reader)].slack = slack;
}

int64_t Arrangement::reader_version(int reader) const {
  auto lock = Lock();
  CHECK(reader >= 0 && static_cast<size_t>(reader) < readers_.size());
  return readers_[static_cast<size_t>(reader)].version;
}

Arrangement::KeyState& Arrangement::Touch(Row key, int64_t first_version) {
  const size_t id = static_cast<size_t>(index_.FindOrInsert(std::move(key)));
  if (id < states_.size()) return states_[id];
  KeyState& ks = states_.emplace_back();
  ks.first_version = first_version;
  if (spec_.kind == ArrangementKind::kAggGroups) {
    ks.base_groups.resize(width());
    // An owned group holds every position's accumulators from its first
    // tuple on; a catalog group sizes its one position when the first
    // delta folds into the base.
    if (owned()) {
      for (GroupAccums& g : ks.base_groups) g.accums.resize(spec_.aggs.size());
    }
  }
  return ks;
}

void Arrangement::Advance(int reader, DeltaBatch batch, std::vector<Row> keys,
                          double* state_work) {
  auto lock = Lock();
  CHECK(reader >= 0 && static_cast<size_t>(reader) < readers_.size() &&
        readers_[static_cast<size_t>(reader)].attached);
  int64_t v = readers_[static_cast<size_t>(reader)].version;
  for (size_t i = 0; i < batch.size(); ++i) {
    DeltaTuple& t = batch[i];
    ++v;
    if (v <= applied_upto_) {
      ++dedup_skipped_;  // an earlier reader already applied this tuple
      continue;
    }
    KeyState& ks = Touch(keys.empty() ? ExtractColumns(t.row, spec_.key_idx)
                                      : std::move(keys[i]),
                         v);
    if (owned()) {
      ApplyToBase(&ks, std::move(t.row), t.qset, t.weight, state_work);
    } else {
      ks.chain.push_back(VersionedDelta{v, std::move(t.row), t.weight});
    }
    applied_upto_ = v;
    ++applied_tuples_;
  }
  readers_[static_cast<size_t>(reader)].version = v;
  if (owned()) base_version_ = applied_upto_;
}

void Arrangement::ApplyToBase(KeyState* ks, Row&& row, const QuerySet& qset,
                              int32_t weight, double* state_work) {
  if (spec_.kind == ArrangementKind::kJoinBuild) {
    ApplyToBucket(&ks->base_bucket, width(), std::move(row), weight,
                 [&](size_t p) {
                   return !owned() || qset.Contains(spec_.query_ids[p]);
                 });
  } else {
    ApplyToGroups(&ks->base_groups, row, qset, weight, state_work);
  }
}

void Arrangement::ApplyToGroups(std::vector<GroupAccums>* groups,
                                const Row& row, const QuerySet& qset,
                                int32_t weight, double* state_work) const {
  // Arguments evaluate once per tuple, not once per position.
  for (size_t i = 0; i < spec_.aggs.size(); ++i) {
    if (has_arg_[i]) argv_[i] = arg_exprs_[i].Eval(row);
  }
  for (size_t p = 0; p < groups->size(); ++p) {
    if (owned() && !qset.Contains(spec_.query_ids[p])) continue;
    GroupAccums& g = (*groups)[p];
    if (g.accums.empty()) g.accums.resize(spec_.aggs.size());
    g.row_count += weight;
    CHECK_GE(g.row_count, 0) << "aggregate group count went negative";
    for (size_t i = 0; i < spec_.aggs.size(); ++i) {
      UpdateAccumCell(spec_.aggs[i].kind, &g.accums[i], argv_[i], weight,
                      state_work);
    }
  }
}

bool Arrangement::HasVisibleChain(const KeyState& ks, int64_t version) {
  return !ks.chain.empty() && ks.chain.front().version <= version;
}

const Bucket* Arrangement::ProbeLocked(const KeyState& ks, int64_t version,
                                       Bucket* scratch) const {
  const Bucket* b = &ks.base_bucket;
  if (HasVisibleChain(ks, version)) {
    *scratch = ks.base_bucket;
    for (const VersionedDelta& d : ks.chain) {
      if (d.version > version) break;
      ApplyToBucket(scratch, 1, d.row, d.weight, [](size_t) { return true; });
    }
    b = scratch;
  }
  return b->rows.empty() ? nullptr : b;
}

const Bucket* Arrangement::Probe(const Row& key, int64_t version,
                                 Bucket* scratch) const {
  auto lock = Lock();
  CHECK_GE(version, base_version_) << "probe below compaction bound";
  int32_t id = index_.Find(key);
  if (id < 0) return nullptr;
  return ProbeLocked(states_[static_cast<size_t>(id)], version, scratch);
}

const std::vector<GroupAccums>& Arrangement::GroupLocked(
    const KeyState& ks, int64_t version, int64_t meter_above,
    std::vector<GroupAccums>* scratch, double* state_work) const {
  if (!HasVisibleChain(ks, version)) return ks.base_groups;
  *scratch = ks.base_groups;
  for (const VersionedDelta& d : ks.chain) {
    if (d.version > version) break;
    ApplyToGroups(scratch, d.row, QuerySet(), d.weight,
                  d.version > meter_above ? state_work : nullptr);
  }
  return *scratch;
}

const std::vector<GroupAccums>& Arrangement::Group(
    const Row& key, int64_t version, int64_t meter_above,
    std::vector<GroupAccums>* scratch, double* state_work) const {
  auto lock = Lock();
  CHECK_GE(version, base_version_) << "fold below compaction bound";
  int32_t id = index_.Find(key);
  CHECK_GE(id, 0) << "fold of a group the arrangement never saw";
  return GroupLocked(states_[static_cast<size_t>(id)], version, meter_above,
                     scratch, state_work);
}

std::vector<std::pair<std::string, Row>> Arrangement::KeysAt(
    int64_t version) const {
  auto lock = Lock();
  std::vector<std::pair<std::string, Row>> out;
  out.reserve(states_.size());
  for (size_t id = 0; id < states_.size(); ++id) {
    if (states_[id].first_version > version) continue;
    out.emplace_back(recovery::EncodeRowKey(index_.keys()[id]),
                     index_.keys()[id]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::unique_ptr<Arrangement> Arrangement::Fork(
    int64_t version, std::vector<QueryId> query_ids) const {
  ArrangementSpec spec = spec_;
  spec.query_ids = std::move(query_ids);
  auto fork = std::make_unique<Arrangement>(std::move(spec));
  const size_t width = fork->width();
  auto lock = Lock();
  CHECK_GE(version, base_version_) << "fork below compaction bound";
  Bucket bucket;
  std::vector<GroupAccums> groups;
  for (size_t id = 0; id < states_.size(); ++id) {
    const KeyState& ks = states_[id];
    if (ks.first_version > version) continue;
    KeyState& dst = fork->Touch(index_.keys()[id], ks.first_version);
    if (spec_.kind == ArrangementKind::kAggGroups) {
      dst.base_groups.assign(
          width, GroupLocked(ks, version, version, &groups, nullptr).front());
      continue;
    }
    const Bucket* b = ProbeLocked(ks, version, &bucket);
    if (b == nullptr) continue;
    dst.base_bucket.rows = b->rows;
    for (int64_t c : b->counts) {
      dst.base_bucket.counts.insert(dst.base_bucket.counts.end(), width, c);
    }
  }
  fork->base_version_ = version;
  fork->applied_upto_ = version;
  fork->readers_[kOwner].version = version;
  return fork;
}

Bucket* Arrangement::MutableBucket(Row key) {
  CHECK(owned());
  return &Touch(std::move(key), applied_upto_).base_bucket;
}

std::vector<GroupAccums>* Arrangement::MutableGroup(Row key) {
  CHECK(owned());
  return &Touch(std::move(key), applied_upto_).base_groups;
}

void Arrangement::FoldKeyIntoBase(KeyState* ks, int64_t upto) {
  size_t folded = 0;
  for (VersionedDelta& d : ks->chain) {
    if (d.version > upto) break;
    // Aggregate deltas were already metered by every attached reader
    // (operators meter up to their cursor at the end of each execution,
    // and upto never exceeds the minimum cursor): replay silently.
    ApplyToBase(ks, std::move(d.row), QuerySet(), d.weight,
                /*state_work=*/nullptr);
    ++folded;
  }
  ks->chain.erase(ks->chain.begin(),
                  ks->chain.begin() + static_cast<std::ptrdiff_t>(folded));
}

int64_t Arrangement::CompactionBoundLocked() const {
  int64_t bound = -1;
  for (const ReaderSlot& r : readers_) {
    if (!r.attached) continue;
    if (bound < 0 || r.version < bound) bound = r.version;
  }
  if (bound < 0) bound = applied_upto_;  // nothing attached pins nothing
  return std::max(bound, base_version_);
}

int64_t Arrangement::Compact(int64_t chain_threshold) {
  auto lock = Lock();
  const int64_t bound = CompactionBoundLocked();
  bool eager = true;
  bool any_attached = false;
  for (const ReaderSlot& r : readers_) {
    if (!r.attached) continue;
    any_attached = true;
    eager = false;
    break;
  }
  if (any_attached) {
    for (const ReaderSlot& r : readers_) {
      if (r.attached && r.slack <= kZeroSlackEps) {
        eager = true;  // a zero-slack reader keeps memory tight
        break;
      }
    }
  }
  int64_t folded = 0;
  for (KeyState& ks : states_) {
    if (ks.chain.empty()) continue;
    if (!eager &&
        static_cast<int64_t>(ks.chain.size()) <= chain_threshold) {
      continue;
    }
    size_t before = ks.chain.size();
    FoldKeyIntoBase(&ks, bound);
    folded += static_cast<int64_t>(before - ks.chain.size());
  }
  if (folded > 0) base_version_ = bound;
  folded_total_ += folded;
  return folded;
}

int64_t Arrangement::base_version() const {
  auto lock = Lock();
  return base_version_;
}

int64_t Arrangement::applied_upto() const {
  auto lock = Lock();
  return applied_upto_;
}

int Arrangement::num_attached() const {
  auto lock = Lock();
  int n = 0;
  for (const ReaderSlot& r : readers_) n += r.attached ? 1 : 0;
  return n;
}

int64_t Arrangement::num_keys() const {
  auto lock = Lock();
  return static_cast<int64_t>(states_.size());
}

int64_t Arrangement::MaxChainLength() const {
  auto lock = Lock();
  int64_t m = 0;
  for (const KeyState& ks : states_) {
    m = std::max(m, static_cast<int64_t>(ks.chain.size()));
  }
  return m;
}

int64_t Arrangement::TotalChainLength() const {
  auto lock = Lock();
  int64_t n = 0;
  for (const KeyState& ks : states_) {
    n += static_cast<int64_t>(ks.chain.size());
  }
  return n;
}

int64_t Arrangement::StateBytesLocked() const {
  const int64_t counter_bytes =
      static_cast<int64_t>(width() * sizeof(int64_t));
  int64_t bytes = 0;
  for (size_t id = 0; id < states_.size(); ++id) {
    const KeyState& ks = states_[id];
    const int64_t key_bytes = ApproxRowBytes(index_.keys()[id]);
    if (spec_.kind == ArrangementKind::kJoinBuild) {
      // Owned state charges only the keys that hold rows.
      if (owned() && ks.base_bucket.rows.empty()) continue;
      bytes += key_bytes;
      for (const Row& row : ks.base_bucket.rows) {
        bytes += ApproxRowBytes(row) + counter_bytes +
                 (owned() ? kRowRecordBytes : 0);
      }
    } else if (owned()) {
      bytes += 2 * key_bytes;
      for (const GroupAccums& g : ks.base_groups) {
        bytes += kPositionRecordBytes;
        for (const AccumCell& a : g.accums) bytes += ApproxAccumBytes(a);
      }
    } else {
      bytes += key_bytes + static_cast<int64_t>(sizeof(int64_t));
      for (const AccumCell& a : ks.base_groups.front().accums) {
        bytes += ApproxAccumBytes(a);
      }
    }
    for (const VersionedDelta& d : ks.chain) {
      bytes += ApproxRowBytes(d.row) +
               static_cast<int64_t>(sizeof(VersionedDelta));
    }
  }
  return bytes;
}

int64_t Arrangement::StateBytes() const {
  auto lock = Lock();
  return StateBytesLocked();
}

void Arrangement::Snapshot(recovery::CheckpointWriter* w) const {
  auto lock = Lock();
  w->U64(static_cast<uint64_t>(spec_.kind));
  w->Str(spec_.signature);
  w->I64(base_version_);
  w->I64(applied_upto_);
  w->I64(applied_tuples_);
  w->I64(dedup_skipped_);
  w->I64(folded_total_);
  std::vector<std::pair<std::string, const KeyState*>> sorted;
  sorted.reserve(states_.size());
  for (size_t id = 0; id < states_.size(); ++id) {
    sorted.emplace_back(recovery::EncodeRowKey(index_.keys()[id]),
                        &states_[id]);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(sorted.size());
  for (const auto& [key_bytes, ks] : sorted) {
    w->Str(key_bytes);
    w->I64(ks->first_version);
    if (spec_.kind == ArrangementKind::kJoinBuild) {
      WriteBucket(w, ks->base_bucket, 1);
    } else {
      w->I64(ks->base_groups.front().row_count);
      WriteAccums(w, ks->base_groups.front().accums);
    }
    w->U64(ks->chain.size());
    for (const VersionedDelta& d : ks->chain) {
      w->I64(d.version);
      recovery::WriteRow(w, d.row);
      w->I64(d.weight);
    }
  }
}

Status Arrangement::Restore(recovery::CheckpointReader* r) {
  auto lock = Lock();
  uint64_t kind = r->U64();
  std::string sig = r->Str();
  if (!r->ok()) return r->status();
  if (kind != static_cast<uint64_t>(spec_.kind) || sig != spec_.signature) {
    r->Fail("arrangement blob for '" + sig +
            "' restored into arrangement '" + spec_.signature + "'");
    return r->status();
  }
  base_version_ = r->I64();
  applied_upto_ = r->I64();
  applied_tuples_ = r->I64();
  dedup_skipped_ = r->I64();
  folded_total_ = r->I64();
  index_.Clear();
  states_.clear();
  uint64_t nkeys = r->U64();
  for (uint64_t k = 0; k < nkeys && r->ok(); ++k) {
    Row key = recovery::ReadRowKey(r);
    int64_t first_version = r->I64();
    if (!r->ok()) break;
    const size_t before = states_.size();
    KeyState& ks = Touch(std::move(key), first_version);
    if (states_.size() == before) {
      r->Fail("duplicate arrangement key in checkpoint");
      break;
    }
    if (spec_.kind == ArrangementKind::kJoinBuild) {
      ReadBucket(r, 1, &ks.base_bucket);
    } else {
      GroupAccums& g = ks.base_groups.front();
      g.row_count = r->I64();
      size_t na = ReadAccums(r, &g.accums);
      if (na != 0 && na != spec_.aggs.size()) {
        r->Fail("arrangement accumulator count mismatch");
        break;
      }
    }
    uint64_t nc = r->U64();
    if (nc > r->remaining()) {
      r->Fail("arrangement chain length exceeds payload");
      break;
    }
    ks.chain.reserve(nc);
    for (uint64_t i = 0; i < nc && r->ok(); ++i) {
      VersionedDelta d;
      d.version = r->I64();
      d.row = recovery::ReadRow(r);
      d.weight = static_cast<int32_t>(r->I64());
      ks.chain.push_back(std::move(d));
    }
  }
  return r->status();
}

// ---- Checkpoint codecs ---------------------------------------------------

void WriteBucket(recovery::CheckpointWriter* w, const Bucket& b,
                 size_t width) {
  const bool one_position = b.counts.size() == b.rows.size();
  w->U64(b.rows.size());
  for (size_t i = 0; i < b.rows.size(); ++i) {
    recovery::WriteRow(w, b.rows[i]);
    w->U64(width);
    for (size_t p = 0; p < width; ++p) {
      w->I64(b.counts[one_position ? i : i * width + p]);
    }
  }
}

void ReadBucket(recovery::CheckpointReader* r, size_t width, Bucket* b) {
  const uint64_t n = r->U64();
  // Each row takes at least its length word, its width word and its
  // counters. Reserving a larger count would abort the process instead of
  // failing the restore.
  if (n > r->remaining() / (2 * sizeof(uint64_t) + width * sizeof(int64_t))) {
    r->Fail("bucket row count " + std::to_string(n) + " exceeds payload");
    return;
  }
  b->rows.reserve(b->rows.size() + n);
  b->counts.reserve(b->counts.size() + n * width);
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    b->rows.push_back(recovery::ReadRow(r));
    if (r->U64() != width) {
      r->Fail("join entry count width mismatch");
      return;
    }
    for (size_t p = 0; p < width; ++p) b->counts.push_back(r->I64());
  }
}

void WriteAccums(recovery::CheckpointWriter* w,
                 const std::vector<AccumCell>& accums) {
  w->U64(accums.size());
  for (const AccumCell& a : accums) {
    w->F64(a.dsum);
    w->I64(a.isum);
    w->I64(a.count);
    std::vector<std::pair<std::string, int64_t>> vals;
    vals.reserve(a.values.size());
    for (const auto& [v, cnt] : a.values) {
      vals.emplace_back(EncodeValueKey(v), cnt);
    }
    std::sort(vals.begin(), vals.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    w->U64(vals.size());
    for (const auto& [vbytes, cnt] : vals) {
      w->Str(vbytes);
      w->I64(cnt);
    }
    w->Bool(a.extremum.has_value());
    if (a.extremum.has_value()) recovery::WriteValue(w, *a.extremum);
  }
}

size_t ReadAccums(recovery::CheckpointReader* r,
                  std::vector<AccumCell>* accums) {
  const uint64_t n = r->U64();
  // A cell takes at least its three scalars, value count and extremum flag.
  if (n > r->remaining() / (4 * sizeof(uint64_t) + 1)) {
    r->Fail("accumulator count " + std::to_string(n) + " exceeds payload");
    return 0;
  }
  accums->assign(n, AccumCell{});
  for (AccumCell& a : *accums) {
    a.dsum = r->F64();
    a.isum = r->I64();
    a.count = r->I64();
    uint64_t nv = r->U64();
    for (uint64_t vi = 0; vi < nv && r->ok(); ++vi) {
      std::string vbytes = r->Str();
      recovery::CheckpointReader vr(vbytes);
      Value v = recovery::ReadValue(&vr);
      if (!vr.Finish().ok()) {
        r->Fail("malformed accumulator value in checkpoint");
        break;
      }
      a.values[v] = r->I64();
    }
    if (r->Bool()) a.extremum = recovery::ReadValue(r);
    if (!r->ok()) break;
  }
  return n;
}

// ---- Catalog -------------------------------------------------------------

Arrangement* ArrangementCatalog::GetOrCreate(const ArrangementSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_sig_.find(spec.signature);
  if (it == by_sig_.end()) {
    it = by_sig_.emplace(spec.signature,
                         std::make_unique<Arrangement>(spec)).first;
    if (budget_ != nullptr) {
      budget_component_[spec.signature] =
          budget_->Register("arr:" + spec.signature);
    }
  }
  return it->second.get();
}

Arrangement* ArrangementCatalog::Find(const std::string& signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_sig_.find(signature);
  return it == by_sig_.end() ? nullptr : it->second.get();
}

int64_t ArrangementCatalog::CompactAtBoundary() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t folded = 0;
  for (auto& [sig, arr] : by_sig_) {
    folded += arr->Compact(kChainCompactThreshold);
  }
  obs::MetricsRegistry& reg = obs::Registry();
  reg.GetCounter("arrange.compact.runs").Add(1);
  if (folded > 0) {
    reg.GetCounter("arrange.compact.folded")
        .Add(static_cast<double>(folded));
  }
  PublishLocked();
  return folded;
}

void ArrangementCatalog::AttachBudget(flow::MemoryBudget* budget) {
  std::lock_guard<std::mutex> lock(mu_);
  if (budget == budget_) return;
  budget_ = budget;
  budget_component_.clear();
  if (budget_ == nullptr) return;
  for (const auto& [sig, arr] : by_sig_) {
    budget_component_[sig] = budget_->Register("arr:" + sig);
  }
  PublishLocked();
}

void ArrangementCatalog::PublishLocked() {
  int64_t total_bytes = 0;
  int64_t max_chain = 0;
  int64_t applied = 0;
  int64_t dedup = 0;
  for (const auto& [sig, arr] : by_sig_) {
    int64_t bytes = arr->StateBytes();
    total_bytes += bytes;
    max_chain = std::max(max_chain, arr->MaxChainLength());
    applied += arr->applied_tuples();
    dedup += arr->dedup_skipped();
    auto it = budget_component_.find(sig);
    if (it != budget_component_.end()) budget_->Set(it->second, bytes);
  }
  obs::MetricsRegistry& reg = obs::Registry();
  reg.GetGauge("arrange.count")
      .Set(static_cast<double>(by_sig_.size()));
  reg.GetGauge("arrange.state_bytes").Set(static_cast<double>(total_bytes));
  reg.GetGauge("arrange.chain.max_len").Set(static_cast<double>(max_chain));
  reg.GetGauge("arrange.apply.tuples").Set(static_cast<double>(applied));
  reg.GetGauge("arrange.apply.dedup_skipped").Set(static_cast<double>(dedup));
}

int ArrangementCatalog::num_arrangements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(by_sig_.size());
}

int64_t ArrangementCatalog::TotalStateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t bytes = 0;
  for (const auto& [sig, arr] : by_sig_) bytes += arr->StateBytes();
  return bytes;
}

std::vector<std::string> ArrangementCatalog::Signatures() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(by_sig_.size());
  for (const auto& [sig, arr] : by_sig_) out.push_back(sig);
  return out;
}

Status ArrangementCatalog::Snapshot(recovery::CheckpointWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->U64(by_sig_.size());
  for (const auto& [sig, arr] : by_sig_) {
    arr->Snapshot(w);
  }
  return Status::OK();
}

Status ArrangementCatalog::Restore(recovery::CheckpointReader* r) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = r->U64();
  if (n != by_sig_.size()) {
    r->Fail("checkpoint has " + std::to_string(n) +
            " arrangements, catalog has " + std::to_string(by_sig_.size()));
    return r->status();
  }
  // Arrangement::Restore verifies each blob's signature against the
  // arrangement it lands in; the catalog's map and the blob are both in
  // signature order, so they pair up positionally.
  for (auto& [sig, arr] : by_sig_) {
    ISHARE_RETURN_NOT_OK(arr->Restore(r));
  }
  return r->status();
}

}  // namespace ishare::arrange
