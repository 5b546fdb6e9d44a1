#include "ishare/exec/hash_join.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "ishare/arrange/eligibility.h"
#include "ishare/sched/worker_pool.h"

namespace ishare {

HashJoinOp::HashJoinOp(const PlanNode* node, const Schema& left_schema,
                       const Schema& right_schema,
                       const ExecOptions::ArrangeOptions& arrange)
    : PhysOp(node) {
  CHECK(node->kind == PlanKind::kJoin);
  for (const std::string& k : node->left_keys) {
    left_key_idx_.push_back(left_schema.IndexOfOrDie(k));
  }
  for (const std::string& k : node->right_keys) {
    right_key_idx_.push_back(right_schema.IndexOfOrDie(k));
  }
  query_ids_ = node->queries.ToIds();
  if (!query_ids_.empty()) {
    query_pos_.assign(static_cast<size_t>(query_ids_.back()) + 1, -1);
  }
  for (size_t i = 0; i < query_ids_.size(); ++i) {
    query_pos_[static_cast<size_t>(query_ids_[i])] = static_cast<int>(i);
  }
  // Resolve candidate arrangements now (the catalog creates them on first
  // request) but attach lazily: a restored operator must attach at its
  // checkpointed version, not at 0.
  if (arrange.enabled()) {
    for (int s = 0; s < 2; ++s) {
      if (arrange::EligibleJoinBuild(node, s)) {
        cand_[s] =
            arrange.catalog->GetOrCreate(arrange::JoinBuildSpec(node, s));
      }
    }
  }
}

HashJoinOp::~HashJoinOp() {
  for (int s = 0; s < 2; ++s) {
    if (arr_[s] != nullptr) arr_[s]->Detach(reader_[s]);
  }
}

void HashJoinOp::EnsureDecided() const {
  if (decided_) return;
  decided_ = true;
  for (int s = 0; s < 2; ++s) {
    if (cand_[s] == nullptr) continue;
    int r = cand_[s]->Attach(version_[s]);
    if (r < 0) continue;  // compacted past our offset; stay private
    arr_[s] = cand_[s];
    reader_[s] = r;
  }
}

bool HashJoinOp::SideArranged(int side) const {
  EnsureDecided();
  CHECK(side == 0 || side == 1);
  return arr_[side] != nullptr;
}

void HashJoinOp::MaterializeSide(int s) {
  SideState* state = (s == 0) ? &left_state_ : &right_state_;
  int64_t* entries = (s == 0) ? &left_entries_ : &right_entries_;
  arr_[s]->FoldSide(version_[s], query_ids_.size(), state, entries);
  arr_[s]->Detach(reader_[s]);
  arr_[s] = nullptr;
  reader_[s] = -1;
}

void HashJoinOp::OnInputDiscarded() {
  EnsureDecided();
  // A discarded batch never reaches this operator, so its consumed offset
  // permanently diverges from the shared build stream; lagging readers
  // would pin compaction forever. Fold to private and carry on.
  for (int s = 0; s < 2; ++s) {
    if (arr_[s] != nullptr) MaterializeSide(s);
  }
}

void HashJoinOp::SetSlackHint(double slack) {
  for (int s = 0; s < 2; ++s) {
    if (arr_[s] != nullptr) arr_[s]->SetReaderSlack(reader_[s], slack);
  }
}

namespace {

// Serializes a key -> vector<int64_t> map with keys in canonical order.
template <typename MapT>
void SnapshotCountMap(recovery::CheckpointWriter* w, const MapT& m) {
  std::vector<std::pair<std::string, const std::vector<int64_t>*>> sorted;
  sorted.reserve(m.size());
  for (const auto& [key, counts] : m) {
    sorted.emplace_back(recovery::EncodeRowKey(key), &counts);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(sorted.size());
  for (const auto& [key_bytes, counts] : sorted) {
    w->Str(key_bytes);
    w->U64(counts->size());
    for (int64_t c : *counts) w->I64(c);
  }
}

}  // namespace

void HashJoinOp::SnapshotSide(recovery::CheckpointWriter* w,
                              const SideState& state) {
  std::vector<std::pair<std::string, const std::vector<Entry>*>> sorted;
  sorted.reserve(state.size());
  for (const auto& [key, bucket] : state) {
    sorted.emplace_back(recovery::EncodeRowKey(key), &bucket);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(sorted.size());
  for (const auto& [key_bytes, bucket] : sorted) {
    w->Str(key_bytes);
    w->U64(bucket->size());
    for (const Entry& e : *bucket) {
      recovery::WriteRow(w, e.row);
      w->U64(e.counts.size());
      for (int64_t c : e.counts) w->I64(c);
    }
  }
}

Status HashJoinOp::RestoreSide(recovery::CheckpointReader* r,
                               SideState* state) {
  state->clear();
  uint64_t num_keys = r->U64();
  for (uint64_t k = 0; k < num_keys && r->ok(); ++k) {
    std::string key_bytes = r->Str();
    recovery::CheckpointReader key_reader(key_bytes);
    Row key = recovery::ReadRow(&key_reader);
    if (!key_reader.Finish().ok()) {
      r->Fail("malformed join key in checkpoint");
      break;
    }
    uint64_t bucket_size = r->U64();
    std::vector<Entry>& bucket = (*state)[key];
    bucket.reserve(bucket_size);
    for (uint64_t i = 0; i < bucket_size && r->ok(); ++i) {
      Entry e;
      e.row = recovery::ReadRow(r);
      uint64_t nc = r->U64();
      if (nc != query_ids_.size()) {
        r->Fail("join entry count width mismatch");
        break;
      }
      e.counts.resize(nc);
      for (uint64_t c = 0; c < nc; ++c) e.counts[c] = r->I64();
      bucket.push_back(std::move(e));
    }
  }
  return r->status();
}

Status HashJoinOp::Snapshot(recovery::CheckpointWriter* w) const {
  EnsureDecided();
  SnapshotWork(w);
  w->Bool(arr_[0] != nullptr);
  w->Bool(arr_[1] != nullptr);
  for (int s = 0; s < 2; ++s) {
    if (arr_[s] != nullptr) {
      // Contents live in the catalog's checkpoint; record only where this
      // reader stands in the shared stream.
      w->I64(version_[s]);
    } else {
      SnapshotSide(w, s == 0 ? left_state_ : right_state_);
    }
  }
  w->I64(left_entries_);
  w->I64(right_entries_);
  SnapshotCountMap(w, right_counts_);
  return Status::OK();
}

Status HashJoinOp::SnapshotCanonical(recovery::CheckpointWriter* w) const {
  EnsureDecided();
  SnapshotWork(w);
  int64_t entries[2] = {left_entries_, right_entries_};
  for (int s = 0; s < 2; ++s) {
    if (arr_[s] != nullptr) {
      SideState folded;
      arr_[s]->FoldSide(version_[s], query_ids_.size(), &folded, &entries[s]);
      SnapshotSide(w, folded);
    } else {
      SnapshotSide(w, s == 0 ? left_state_ : right_state_);
    }
  }
  w->I64(entries[0]);
  w->I64(entries[1]);
  SnapshotCountMap(w, right_counts_);
  return Status::OK();
}

Status HashJoinOp::Restore(recovery::CheckpointReader* r) {
  RestoreWork(r);
  bool arranged[2] = {r->Bool(), r->Bool()};
  if (!r->ok()) return r->status();
  for (int s = 0; s < 2; ++s) {
    SideState* state = (s == 0) ? &left_state_ : &right_state_;
    if (arranged[s]) {
      if (cand_[s] == nullptr) {
        r->Fail("arranged join checkpoint without an arrangement catalog");
        return r->status();
      }
      version_[s] = r->I64();
      if (arr_[s] != nullptr) {
        if (!arr_[s]->SetReaderVersion(reader_[s], version_[s])) {
          r->Fail("arranged join reader version compacted away");
          return r->status();
        }
      } else {
        reader_[s] = cand_[s]->Attach(version_[s]);
        if (reader_[s] < 0) {
          r->Fail("arranged join reader version compacted away");
          return r->status();
        }
        arr_[s] = cand_[s];
      }
      state->clear();
    } else {
      if (arr_[s] != nullptr) {
        arr_[s]->Detach(reader_[s]);
        arr_[s] = nullptr;
        reader_[s] = -1;
      }
      ISHARE_RETURN_NOT_OK(RestoreSide(r, state));
    }
  }
  decided_ = true;
  left_entries_ = r->I64();
  right_entries_ = r->I64();
  right_counts_.clear();
  uint64_t num_rc = r->U64();
  for (uint64_t k = 0; k < num_rc && r->ok(); ++k) {
    std::string key_bytes = r->Str();
    recovery::CheckpointReader key_reader(key_bytes);
    Row key = recovery::ReadRow(&key_reader);
    if (!key_reader.Finish().ok()) {
      r->Fail("malformed right-count key in checkpoint");
      break;
    }
    uint64_t nc = r->U64();
    if (nc != query_ids_.size()) {
      r->Fail("right-count width mismatch");
      break;
    }
    std::vector<int64_t> counts(nc);
    for (uint64_t c = 0; c < nc; ++c) counts[c] = r->I64();
    right_counts_[key] = std::move(counts);
  }
  return r->status();
}

void HashJoinOp::BindScheduler(sched::WorkerPool* pool,
                               const sched::SchedulerOptions& opts) {
  pool_ = pool;
  morsel_min_tuples_ = opts.morsel_min_tuples;
}

void HashJoinOp::UpdateBucket(std::vector<Entry>* bucket, DeltaTuple* t,
                              int64_t* entry_counter) {
  Entry* entry = nullptr;
  for (Entry& e : *bucket) {
    if (e.row == t->row) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    CHECK_GT(t->weight, 0) << "delete of a row absent from join state";
    bucket->push_back(
        Entry{std::move(t->row), std::vector<int64_t>(query_ids_.size(), 0)});
    entry = &bucket->back();
    ++*entry_counter;
  }
  bool all_zero = true;
  for (size_t pos = 0; pos < query_ids_.size(); ++pos) {
    if (t->qset.Contains(query_ids_[pos])) {
      entry->counts[pos] += t->weight;
      CHECK_GE(entry->counts[pos], 0) << "negative multiplicity in join state";
    }
    if (entry->counts[pos] != 0) all_zero = false;
  }
  if (all_zero) {
    *entry = std::move(bucket->back());
    bucket->pop_back();
    --*entry_counter;
  }
}

void HashJoinOp::UpdateState(SideState* state, Row key, DeltaTuple* t,
                             int64_t* entry_counter) {
  auto it = state->try_emplace(std::move(key)).first;
  UpdateBucket(&it->second, t, entry_counter);
  if (it->second.empty()) state->erase(it);
}

void HashJoinOp::EmitMatches(const DeltaTuple& t, const Entry& e,
                             bool t_is_left, OpWork* work, DeltaBatch* out) {
  // Group queries by the contribution weight t.weight * e.counts[q] so the
  // common case (uniform multiplicities) emits a single delta tuple.
  std::map<int64_t, QuerySet> by_weight;
  for (QueryId q : t.qset.ToIds()) {
    int64_t w = static_cast<int64_t>(t.weight) * e.counts[QueryPos(q)];
    if (w == 0) continue;
    by_weight[w].Add(q);
  }
  if (by_weight.empty()) return;
  const Row& first = t_is_left ? t.row : e.row;
  const Row& second = t_is_left ? e.row : t.row;
  Row joined;
  joined.reserve(first.size() + second.size());
  joined.insert(joined.end(), first.begin(), first.end());
  joined.insert(joined.end(), second.begin(), second.end());
  // Every weight group but the last gets a copy; the last takes the row.
  const auto last = std::prev(by_weight.end());
  for (auto it = by_weight.begin(); it != last; ++it) {
    out->emplace_back(joined, it->second, static_cast<int32_t>(it->first));
  }
  out->emplace_back(std::move(joined), last->second,
                    static_cast<int32_t>(last->first));
  work->out += static_cast<double>(by_weight.size());
}

DeltaBatch HashJoinOp::Process(int child_idx, DeltaBatch in) {
  CHECK(child_idx == 0 || child_idx == 1);
  if (node_->join_type == JoinType::kInner) {
    return ProcessInner(child_idx, &in);
  }
  return ProcessSemiAnti(child_idx, &in);
}

DeltaBatch HashJoinOp::ProcessInner(int child_idx, DeltaBatch* in) {
  EnsureDecided();
  DeltaBatch out;
  const bool from_left = (child_idx == 0);
  const int own_side = from_left ? 0 : 1;
  const int other_side = 1 - own_side;
  SideState* own = from_left ? &left_state_ : &right_state_;
  SideState* other = from_left ? &right_state_ : &left_state_;
  int64_t* own_entries = from_left ? &left_entries_ : &right_entries_;
  const std::vector<int>& own_keys =
      from_left ? left_key_idx_ : right_key_idx_;
  const bool own_arranged = arr_[own_side] != nullptr;
  const bool other_arranged = arr_[other_side] != nullptr;

  if (!own_arranged && !other_arranged && pool_ != nullptr &&
      pool_->num_threads() > 1 &&
      static_cast<int64_t>(in->size()) >= morsel_min_tuples_) {
    return ProcessInnerParallel(own, other, own_entries, own_keys, from_left,
                                in);
  }

  // Per tuple the probe runs before the build: probes only read the
  // *other* side, which this call never mutates, so the order is
  // invisible — and probing first lets the build move the row into the
  // state once the probe is done with it. For the same reason an arranged
  // own side may apply the whole batch up front. A probe against an
  // arranged other side folds at that reader's version, which excludes
  // everything applied here — including a self-join sharing one
  // arrangement for both sides.
  if (own_arranged) {
    work_.in += static_cast<double>(in->size());
    arr_[own_side]->Advance(reader_[own_side], *in);
    version_[own_side] += static_cast<int64_t>(in->size());
  }

  std::vector<Entry> folded;
  for (DeltaTuple& t : *in) {
    if (!own_arranged) work_.in += 1;
    Row key = ExtractColumns(t.row, own_keys);
    if (other_arranged) {
      arr_[other_side]->FoldBucket(key, version_[other_side],
                                   query_ids_.size(), &folded);
      for (const Entry& e : folded) {
        work_.state += 1;  // probe cost
        EmitMatches(t, e, from_left, &work_, &out);
      }
    } else if (auto it = other->find(key); it != other->end()) {
      for (const Entry& e : it->second) {
        work_.state += 1;  // probe cost
        EmitMatches(t, e, from_left, &work_, &out);
      }
    }
    if (!own_arranged) UpdateState(own, std::move(key), &t, own_entries);
  }
  return out;
}

// Parallel inner-join execution (DESIGN.md §10). The serial loop
// interleaves probe (`other` lookups) and build (UpdateState on `own`)
// per tuple, but a tuple's probe results depend only on `other` — which
// this call never mutates — so splitting into a full probe phase then a
// full build phase emits exactly the serial output. Probing first lets
// the build move rows into the state, as the serial loop does.
//
// Keys are extracted serially (fixing group/bucket creation order and all
// map structure mutation on the driver thread).
//
// Probe: contiguous morsels with one output slot per tuple; slots are
// concatenated in input order and per-morsel work partials folded in
// morsel order, keeping both the emitted batch and the work meter
// bit-identical to serial.
//
// Build: workers update buckets partitioned by key hash — each key is
// owned by exactly one worker, so per-key entry order matches the serial
// input-order walk. Keys whose buckets empty out are erased in a serial
// post-pass; serial execution erases them mid-batch, but map membership
// of empty buckets is not observable (probes skip them, snapshots sort
// keys, byte accounting sums integers).
DeltaBatch HashJoinOp::ProcessInnerParallel(SideState* own, SideState* other,
                                            int64_t* own_entries,
                                            const std::vector<int>& own_keys,
                                            bool from_left, DeltaBatch* in) {
  const size_t n = in->size();
  const int workers = pool_->num_threads();
  std::vector<Row> keys(n);
  std::vector<int> part(n);
  std::vector<std::vector<Entry>*> bucket_of(n);
  for (size_t i = 0; i < n; ++i) {
    work_.in += 1;
    keys[i] = ExtractColumns((*in)[i].row, own_keys);
    part[i] =
        static_cast<int>(HashRow(keys[i]) % static_cast<size_t>(workers));
    // try_emplace pre-creates the bucket so workers never mutate map
    // structure; element addresses are stable across later insertions,
    // so the cached bucket pointers survive the rest of the pre-pass.
    bucket_of[i] = &own->try_emplace(keys[i]).first->second;
  }

  std::vector<DeltaBatch> slots(n);
  std::vector<OpWork> partial(static_cast<size_t>(workers));
  pool_->ParallelFor(workers, [&](int64_t w) {
    const size_t lo = n * static_cast<size_t>(w) /
                      static_cast<size_t>(workers);
    const size_t hi = n * (static_cast<size_t>(w) + 1) /
                      static_cast<size_t>(workers);
    OpWork* pw = &partial[static_cast<size_t>(w)];
    for (size_t i = lo; i < hi; ++i) {
      auto it = other->find(keys[i]);
      if (it == other->end()) continue;
      for (const Entry& e : it->second) {
        pw->state += 1;  // probe cost
        EmitMatches((*in)[i], e, from_left, pw, &slots[i]);
      }
    }
  });
  for (const OpWork& w : partial) work_ += w;

  std::vector<int64_t> entry_delta(static_cast<size_t>(workers), 0);
  pool_->ParallelFor(workers, [&](int64_t p) {
    int64_t delta = 0;
    for (size_t i = 0; i < n; ++i) {
      if (part[i] != p) continue;
      UpdateBucket(bucket_of[i], &(*in)[i], &delta);
    }
    entry_delta[static_cast<size_t>(p)] = delta;
  });
  for (int64_t d : entry_delta) *own_entries += d;
  // Serial execution erases a key the moment its bucket empties; sweep
  // every key this batch touched so the final map membership matches
  // (snapshots serialize all keys, so an empty leftover bucket would
  // break checkpoint bit-exactness).
  for (size_t i = 0; i < n; ++i) {
    auto it = own->find(keys[i]);
    if (it != own->end() && it->second.empty()) own->erase(it);
  }

  DeltaBatch out;
  for (DeltaBatch& s : slots) {
    out.insert(out.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  }
  return out;
}

DeltaBatch HashJoinOp::ProcessSemiAnti(int child_idx, DeltaBatch* in) {
  const bool semi = (node_->join_type == JoinType::kLeftSemi);
  DeltaBatch out;

  if (child_idx == 0) {
    // Left deltas: emit for the queries whose current right match count
    // satisfies the semi/anti condition, then store (the state update
    // does not touch the right counts, so the order is invisible).
    for (DeltaTuple& t : *in) {
      work_.in += 1;
      Row key = ExtractColumns(t.row, left_key_idx_);
      auto it = right_counts_.find(key);
      QuerySet pass;
      for (QueryId q : t.qset.ToIds()) {
        int64_t cnt =
            (it == right_counts_.end()) ? 0 : it->second[QueryPos(q)];
        bool matched = cnt > 0;
        if (matched == semi) pass.Add(q);
      }
      work_.state += 1;
      if (!pass.empty()) {
        out.emplace_back(t.row, pass, t.weight);
        work_.out += 1;
      }
      UpdateState(&left_state_, std::move(key), &t, &left_entries_);
    }
    return out;
  }

  // Right deltas: maintain per-(key, query) counts; when a count crosses
  // zero, (re-)emit or retract the stored left tuples for that query.
  for (const DeltaTuple& t : *in) {
    work_.in += 1;
    Row key = ExtractColumns(t.row, right_key_idx_);
    std::vector<int64_t>& counts = right_counts_[key];
    if (counts.empty()) counts.assign(query_ids_.size(), 0);
    QuerySet became_matched;
    QuerySet became_unmatched;
    for (QueryId q : t.qset.ToIds()) {
      int pos = QueryPos(q);
      int64_t before = counts[pos];
      counts[pos] += t.weight;
      CHECK_GE(counts[pos], 0) << "negative right match count";
      if (before == 0 && counts[pos] > 0) became_matched.Add(q);
      if (before > 0 && counts[pos] == 0) became_unmatched.Add(q);
    }
    work_.state += 1;
    if (became_matched.empty() && became_unmatched.empty()) continue;

    // For semi joins, newly matched queries gain left tuples and newly
    // unmatched queries lose them; anti joins are the mirror image.
    QuerySet emit_plus = semi ? became_matched : became_unmatched;
    QuerySet emit_minus = semi ? became_unmatched : became_matched;
    auto lit = left_state_.find(key);
    if (lit == left_state_.end()) continue;
    for (const Entry& e : lit->second) {
      work_.state += 1;
      // Group affected queries by their stored multiplicity.
      std::map<int64_t, QuerySet> plus_by_w;
      std::map<int64_t, QuerySet> minus_by_w;
      for (QueryId q : emit_plus.ToIds()) {
        int64_t c = e.counts[QueryPos(q)];
        if (c != 0) plus_by_w[c].Add(q);
      }
      for (QueryId q : emit_minus.ToIds()) {
        int64_t c = e.counts[QueryPos(q)];
        if (c != 0) minus_by_w[c].Add(q);
      }
      for (const auto& [w, qset] : plus_by_w) {
        out.emplace_back(e.row, qset, static_cast<int32_t>(w));
        work_.out += 1;
      }
      for (const auto& [w, qset] : minus_by_w) {
        out.emplace_back(e.row, qset, static_cast<int32_t>(-w));
        work_.out += 1;
      }
    }
  }
  return out;
}

int64_t HashJoinOp::LeftStateSize() const {
  EnsureDecided();
  if (arr_[0] == nullptr) return left_entries_;
  SideState folded;
  int64_t n = 0;
  arr_[0]->FoldSide(version_[0], query_ids_.size(), &folded, &n);
  return n;
}

int64_t HashJoinOp::RightStateSize() const {
  EnsureDecided();
  if (arr_[1] == nullptr) return right_entries_;
  SideState folded;
  int64_t n = 0;
  arr_[1]->FoldSide(version_[1], query_ids_.size(), &folded, &n);
  return n;
}

int64_t HashJoinOp::StateBytes() const {
  // Arranged sides hold no private map (their bytes are the catalog's
  // `arr:` budget components), so summing the private maps is correct in
  // every mode.
  int64_t bytes = 0;
  auto side_bytes = [](const SideState& side) {
    int64_t b = 0;
    for (const auto& [key, bucket] : side) {
      b += ApproxRowBytes(key);
      for (const Entry& e : bucket) {
        b += ApproxRowBytes(e.row) +
             static_cast<int64_t>(e.counts.size() * sizeof(int64_t) +
                                  sizeof(Entry));
      }
    }
    return b;
  };
  bytes += side_bytes(left_state_);
  bytes += side_bytes(right_state_);
  for (const auto& [key, counts] : right_counts_) {
    bytes += ApproxRowBytes(key) +
             static_cast<int64_t>(counts.size() * sizeof(int64_t));
  }
  return bytes;
}

}  // namespace ishare
