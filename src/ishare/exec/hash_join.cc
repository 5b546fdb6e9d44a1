#include "ishare/exec/hash_join.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "ishare/arrange/eligibility.h"

namespace ishare {

HashJoinOp::HashJoinOp(const PlanNode* node, const Schema& left_schema,
                       const Schema& right_schema,
                       const ExecOptions::ArrangeOptions& arrange)
    : PhysOp(node) {
  CHECK(node->kind == PlanKind::kJoin);
  for (const std::string& k : node->left_keys) {
    sides_[0].key_idx.push_back(left_schema.IndexOfOrDie(k));
  }
  for (const std::string& k : node->right_keys) {
    sides_[1].key_idx.push_back(right_schema.IndexOfOrDie(k));
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
        sides_[s].candidate =
            arrange.catalog->GetOrCreate(arrange::JoinBuildSpec(node, s));
      }
    }
  }
}

HashJoinOp::~HashJoinOp() {
  for (Side& side : sides_) {
    if (side.shared()) side.arr->Detach(side.reader);
  }
}

std::unique_ptr<arrange::Arrangement> HashJoinOp::NewOwned(int s) const {
  arrange::ArrangementSpec spec;
  spec.kind = arrange::ArrangementKind::kJoinBuild;
  spec.key_idx = sides_[s].key_idx;
  spec.query_ids = query_ids_;
  return std::make_unique<arrange::Arrangement>(std::move(spec));
}

void HashJoinOp::Own(int s,
                     std::unique_ptr<arrange::Arrangement> owned) const {
  Side& side = sides_[s];
  if (side.shared()) side.arr->Detach(side.reader);
  side.owned = std::move(owned);
  side.arr = side.owned.get();
  side.reader = arrange::Arrangement::kOwner;
}

void HashJoinOp::EnsureDecided() const {
  for (int s = 0; s < 2; ++s) {
    Side& side = sides_[s];
    if (side.arr != nullptr) continue;
    if (side.candidate != nullptr) {
      side.reader = side.candidate->Attach(side.version);
      if (side.reader >= 0) {
        side.arr = side.candidate;
        continue;
      }
    }
    // Ineligible, or compacted past this side's offset.
    Own(s, NewOwned(s));
  }
}

void HashJoinOp::OnInputDiscarded() {
  EnsureDecided();
  // A discarded batch never reaches this operator, so its consumed offset
  // permanently diverges from the shared build stream, and a lagging reader
  // would pin compaction forever. Fork what it has read and carry on.
  for (int s = 0; s < 2; ++s) {
    const Side& side = sides_[s];
    if (side.shared()) Own(s, side.arr->Fork(side.version, query_ids_));
  }
}

void HashJoinOp::SetSlackHint(double slack) {
  for (const Side& side : sides_) {
    if (side.shared()) side.arr->SetReaderSlack(side.reader, slack);
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

int64_t HashJoinOp::WriteSide(recovery::CheckpointWriter* w, int s) const {
  const Side& side = sides_[s];
  const auto keys = side.arr->KeysAt(side.version);
  arrange::Bucket scratch;
  uint64_t live = 0;
  for (const auto& [bytes, key] : keys) {
    if (side.arr->Probe(key, side.version, &scratch) != nullptr) ++live;
  }
  w->U64(live);
  int64_t rows = 0;
  for (const auto& [bytes, key] : keys) {
    const arrange::Bucket* b = side.arr->Probe(key, side.version, &scratch);
    if (b == nullptr) continue;
    w->Str(bytes);
    arrange::WriteBucket(w, *b, query_ids_.size());
    rows += static_cast<int64_t>(b->rows.size());
  }
  return rows;
}

Status HashJoinOp::Write(recovery::CheckpointWriter* w, bool canonical) const {
  EnsureDecided();
  SnapshotWork(w);
  if (!canonical) {
    w->Bool(sides_[0].shared());
    w->Bool(sides_[1].shared());
  }
  int64_t rows[2] = {0, 0};
  for (int s = 0; s < 2; ++s) {
    if (!canonical && sides_[s].shared()) {
      // Contents live in the catalog's checkpoint; record only where this
      // reader stands in the shared stream.
      w->I64(sides_[s].version);
    } else {
      rows[s] = WriteSide(w, s);
    }
  }
  w->I64(rows[0]);
  w->I64(rows[1]);
  SnapshotCountMap(w, right_counts_);
  return Status::OK();
}

Status HashJoinOp::Snapshot(recovery::CheckpointWriter* w) const {
  return Write(w, /*canonical=*/false);
}

Status HashJoinOp::SnapshotCanonical(recovery::CheckpointWriter* w) const {
  return Write(w, /*canonical=*/true);
}

Status HashJoinOp::Restore(recovery::CheckpointReader* r) {
  RestoreWork(r);
  bool shared[2] = {r->Bool(), r->Bool()};
  if (!r->ok()) return r->status();
  for (int s = 0; s < 2; ++s) {
    Side& side = sides_[s];
    if (!shared[s]) {
      Own(s, NewOwned(s));
      side.version = 0;
      uint64_t num_keys = r->U64();
      for (uint64_t k = 0; k < num_keys && r->ok(); ++k) {
        Row key = recovery::ReadRowKey(r);
        if (!r->ok()) break;
        arrange::ReadBucket(r, query_ids_.size(),
                            side.owned->MutableBucket(std::move(key)));
      }
      if (!r->ok()) return r->status();
      continue;
    }
    if (side.candidate == nullptr) {
      r->Fail("shared join checkpoint without an arrangement catalog");
      return r->status();
    }
    side.version = r->I64();
    if (side.shared()) {
      if (!side.arr->SetReaderVersion(side.reader, side.version)) {
        r->Fail("shared join reader version compacted away");
        return r->status();
      }
      continue;
    }
    side.reader = side.candidate->Attach(side.version);
    if (side.reader < 0) {
      r->Fail("shared join reader version compacted away");
      return r->status();
    }
    side.owned.reset();
    side.arr = side.candidate;
  }
  r->I64();  // stored-row counts: implied by the sides
  r->I64();
  right_counts_.clear();
  uint64_t num_rc = r->U64();
  for (uint64_t k = 0; k < num_rc && r->ok(); ++k) {
    Row key = recovery::ReadRowKey(r);
    uint64_t nc = r->U64();
    if (!r->ok()) break;
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

void HashJoinOp::Apply(int s, DeltaBatch in, std::vector<Row> keys) {
  Side& side = sides_[s];
  const int64_t n = static_cast<int64_t>(in.size());
  side.arr->Advance(side.reader, std::move(in), std::move(keys));
  side.version += n;
}

void HashJoinOp::EmitMatches(const DeltaTuple& t, const Row& row,
                             const int64_t* counts, size_t width,
                             bool t_is_left, DeltaBatch* out) {
  // Group queries by the contribution weight t.weight * count(q) so the
  // common case (uniform multiplicities) emits a single delta tuple.
  std::map<int64_t, QuerySet> by_weight;
  for (QueryId q : t.qset.ToIds()) {
    int64_t w = static_cast<int64_t>(t.weight) * CountFor(counts, width, q);
    if (w == 0) continue;
    by_weight[w].Add(q);
  }
  if (by_weight.empty()) return;
  const Row& first = t_is_left ? t.row : row;
  const Row& second = t_is_left ? row : t.row;
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
  work_.out += static_cast<double>(by_weight.size());
}

DeltaBatch HashJoinOp::Process(int child_idx, DeltaBatch in) {
  CHECK(child_idx == 0 || child_idx == 1);
  EnsureDecided();
  if (node_->join_type == JoinType::kInner) {
    return ProcessInner(child_idx, std::move(in));
  }
  return ProcessSemiAnti(child_idx, std::move(in));
}

DeltaBatch HashJoinOp::ProcessInner(int own, DeltaBatch in) {
  // The batch probes the other side, then moves into its own: a probe
  // reads only the other side, which this call never changes, so the
  // order is invisible. A probe of a shared side reads at that side's
  // version, which excludes everything applied here — including a
  // self-join sharing one arrangement for both sides.
  const Side& other = sides_[1 - own];
  const size_t width = other.arr->width();
  // An owned side applies every tuple, so it takes the probe keys along;
  // a shared side extracts the keys of the few tuples it applies itself.
  const bool keep_keys = !sides_[own].shared();
  DeltaBatch out;
  std::vector<Row> keys;
  if (keep_keys) keys.reserve(in.size());
  arrange::Bucket scratch;
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    Row key = ExtractColumns(t.row, sides_[own].key_idx);
    if (const arrange::Bucket* b =
            other.arr->Probe(key, other.version, &scratch)) {
      for (size_t i = 0; i < b->rows.size(); ++i) {
        work_.state += 1;  // probe cost
        EmitMatches(t, b->rows[i], &b->counts[i * width], width, own == 0,
                    &out);
      }
    }
    if (keep_keys) keys.push_back(std::move(key));
  }
  Apply(own, std::move(in), std::move(keys));
  return out;
}

DeltaBatch HashJoinOp::ProcessSemiAnti(int child_idx, DeltaBatch in) {
  const bool semi = (node_->join_type == JoinType::kLeftSemi);
  DeltaBatch out;

  if (child_idx == 0) {
    // Left deltas: emit for the queries whose current right match count
    // satisfies the semi/anti condition, then store (the state update
    // does not touch the right counts, so the order is invisible).
    std::vector<Row> keys;
    keys.reserve(in.size());
    for (const DeltaTuple& t : in) {
      work_.in += 1;
      keys.push_back(ExtractColumns(t.row, sides_[0].key_idx));
      auto it = right_counts_.find(keys.back());
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
    }
    Apply(0, std::move(in), std::move(keys));
    return out;
  }

  // Right deltas: maintain per-(key, query) counts; when a count crosses
  // zero, (re-)emit or retract the stored left tuples for that query.
  const Side& left = sides_[0];
  const size_t width = left.arr->width();
  arrange::Bucket scratch;
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    Row key = ExtractColumns(t.row, sides_[1].key_idx);
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
    const arrange::Bucket* b = left.arr->Probe(key, left.version, &scratch);
    if (b == nullptr) continue;
    for (size_t i = 0; i < b->rows.size(); ++i) {
      work_.state += 1;
      const int64_t* row_counts = &b->counts[i * width];
      // Group affected queries by their stored multiplicity.
      std::map<int64_t, QuerySet> plus_by_w;
      std::map<int64_t, QuerySet> minus_by_w;
      for (QueryId q : emit_plus.ToIds()) {
        int64_t c = CountFor(row_counts, width, q);
        if (c != 0) plus_by_w[c].Add(q);
      }
      for (QueryId q : emit_minus.ToIds()) {
        int64_t c = CountFor(row_counts, width, q);
        if (c != 0) minus_by_w[c].Add(q);
      }
      for (const auto& [w, qset] : plus_by_w) {
        out.emplace_back(b->rows[i], qset, static_cast<int32_t>(w));
        work_.out += 1;
      }
      for (const auto& [w, qset] : minus_by_w) {
        out.emplace_back(b->rows[i], qset, static_cast<int32_t>(-w));
        work_.out += 1;
      }
    }
  }
  return out;
}

int64_t HashJoinOp::LeftStateSize() const {
  EnsureDecided();
  recovery::CheckpointWriter scratch;
  return WriteSide(&scratch, 0);
}

int64_t HashJoinOp::StateBytes() const {
  // Shared sides are their arrangement's `arr:` budget component.
  int64_t bytes = 0;
  for (const Side& side : sides_) {
    if (side.arr != nullptr && !side.shared()) bytes += side.arr->StateBytes();
  }
  for (const auto& [key, counts] : right_counts_) {
    bytes += ApproxRowBytes(key) +
             static_cast<int64_t>(counts.size() * sizeof(int64_t));
  }
  return bytes;
}

}  // namespace ishare
