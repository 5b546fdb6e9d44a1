#include "ishare/exec/aggregate.h"

#include <algorithm>

#include "ishare/arrange/eligibility.h"
#include "ishare/sched/worker_pool.h"

namespace ishare {

AggregateOp::AggregateOp(const PlanNode* node, const Schema& input_schema,
                         const ExecOptions::ArrangeOptions& arrange)
    : PhysOp(node) {
  CHECK(node->kind == PlanKind::kAggregate);
  for (const std::string& g : node->group_by) {
    group_key_idx_.push_back(input_schema.IndexOfOrDie(g));
  }
  for (const AggSpec& spec : node->aggregates) {
    if (spec.arg != nullptr) {
      arg_exprs_.push_back(CompiledExpr::Compile(spec.arg, input_schema));
      has_arg_.push_back(true);
    } else {
      arg_exprs_.emplace_back();
      has_arg_.push_back(false);
    }
  }
  query_ids_ = node->queries.ToIds();
  // Resolve the candidate arrangement now but attach lazily: a restored
  // operator must attach at its checkpointed version, not at 0.
  if (arrange.enabled() && arrange::EligibleAgg(node)) {
    cand_ = arrange.catalog->GetOrCreate(arrange::AggGroupsSpec(node));
  }
}

AggregateOp::~AggregateOp() {
  if (arr_ != nullptr) arr_->Detach(reader_);
}

void AggregateOp::EnsureDecided() const {
  if (decided_) return;
  decided_ = true;
  if (cand_ == nullptr) return;
  int r = cand_->Attach(version_);
  if (r < 0) return;  // compacted past our offset; stay private
  arr_ = cand_;
  reader_ = r;
}

bool AggregateOp::Arranged() const {
  EnsureDecided();
  return arr_ != nullptr;
}

void AggregateOp::UpdateAccum(const AggSpec& spec, Accum* a, const Value& v,
                              int32_t w, OpWork* work) {
  arrange::UpdateAccumCell(spec.kind, a, v, w, &work->state);
}

void AggregateOp::BindScheduler(sched::WorkerPool* pool,
                                const sched::SchedulerOptions& opts) {
  pool_ = pool;
  morsel_min_tuples_ = opts.morsel_min_tuples;
}

void AggregateOp::ApplyTuple(const DeltaTuple& t, GroupState* g,
                             const std::vector<Value>& argv, OpWork* work) {
  const auto& specs = node_->aggregates;
  for (size_t pos = 0; pos < query_ids_.size(); ++pos) {
    if (!t.qset.Contains(query_ids_[pos])) continue;
    QueryState& qs = g->per_query[pos];
    qs.row_count += t.weight;
    CHECK_GE(qs.row_count, 0) << "aggregate group count went negative";
    for (size_t i = 0; i < specs.size(); ++i) {
      UpdateAccum(specs[i], &qs.accums[i], argv[i], t.weight, work);
    }
  }
}

DeltaBatch AggregateOp::Process(int child_idx, DeltaBatch in) {
  CHECK_EQ(child_idx, 0);
  EnsureDecided();
  if (arr_ != nullptr) {
    // Arranged: append to the shared store and remember which groups this
    // execution touched. Accumulator folding — and the state work it
    // meters — happens once per dirty group in EndExecution.
    for (const DeltaTuple& t : in) {
      work_.in += 1;
      Row key = ExtractColumns(t.row, group_key_idx_);
      if (dirty_seen_.insert(key).second) {
        dirty_order_.push_back(std::move(key));
      }
    }
    arr_->Advance(reader_, in);
    version_ += static_cast<int64_t>(in.size());
    return {};  // blocking: output released in EndExecution
  }
  if (pool_ != nullptr && pool_->num_threads() > 1 &&
      static_cast<int64_t>(in.size()) >= morsel_min_tuples_) {
    return ProcessParallel(in);
  }
  const auto& specs = node_->aggregates;
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    Row key = ExtractColumns(t.row, group_key_idx_);
    GroupState& g = groups_[key];
    if (g.per_query.empty()) {
      g.key = key;
      g.per_query.resize(query_ids_.size());
      for (QueryState& qs : g.per_query) qs.accums.resize(specs.size());
    }
    // Evaluate aggregate arguments once per tuple, not once per query.
    std::vector<Value> argv(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      if (has_arg_[i]) argv[i] = arg_exprs_[i].Eval(t.row);
    }
    ApplyTuple(t, &g, argv, &work_);
    if (dirty_seen_.insert(key).second) {
      dirty_order_.push_back(std::move(key));
    }
  }
  return {};  // blocking: output released in EndExecution
}

// Two-phase morsel path (DESIGN.md §10), after the parallel group-by
// pattern: a serial pre-pass performs every hash-map structure mutation
// (group creation, dirty tracking) in input order, then the pool updates
// accumulators with groups partitioned by key hash. Bit-exactness with
// the serial loop:
//  - each group belongs to exactly one partition, and its partition task
//    walks the batch in input order, so every (group, query) accumulator
//    sees the identical update sequence (double sums are order-sensitive;
//    the order never changes);
//  - group creation order — and hence groups_'s iteration order and the
//    dirty emission order — is fixed by the serial pre-pass;
//  - per-task OpWork partials are integer-valued counts folded in fixed
//    partition order.
DeltaBatch AggregateOp::ProcessParallel(DeltaSpan in) {
  const auto& specs = node_->aggregates;
  const size_t n = in.size();
  const int parts = pool_->num_threads();
  std::vector<Row> keys(n);
  std::vector<int> part(n);
  std::vector<GroupState*> group_of(n);
  for (size_t i = 0; i < n; ++i) {
    work_.in += 1;
    keys[i] = ExtractColumns(in[i].row, group_key_idx_);
    part[i] = static_cast<int>(HashRow(keys[i]) % static_cast<size_t>(parts));
    GroupState& g = groups_[keys[i]];
    if (g.per_query.empty()) {
      g.key = keys[i];
      g.per_query.resize(query_ids_.size());
      for (QueryState& qs : g.per_query) qs.accums.resize(specs.size());
    }
    group_of[i] = &g;
    if (dirty_seen_.insert(keys[i]).second) {
      dirty_order_.push_back(keys[i]);
    }
  }
  std::vector<OpWork> partial(static_cast<size_t>(parts));
  pool_->ParallelFor(parts, [&](int64_t p) {
    OpWork* w = &partial[static_cast<size_t>(p)];
    std::vector<Value> argv(specs.size());
    for (size_t i = 0; i < n; ++i) {
      if (part[i] != p) continue;
      const DeltaTuple& t = in[i];
      for (size_t a = 0; a < specs.size(); ++a) {
        if (has_arg_[a]) argv[a] = arg_exprs_[a].Eval(t.row);
      }
      ApplyTuple(t, group_of[i], argv, w);
    }
  });
  for (const OpWork& w : partial) work_ += w;
  return {};  // blocking: output released in EndExecution
}

// GCC 12's -Wmaybe-uninitialized falsely fires on the engaged
// optional<Value>/variant string alternative when the row vector
// reallocates during push_back (PR 105562-style false positive).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::optional<Row> AggregateOp::RowFromAccums(
    const Row& key, int64_t row_count,
    const std::vector<Accum>& accums) const {
  if (row_count <= 0) return std::nullopt;
  Row row = key;
  const auto& specs = node_->aggregates;
  const Schema& out_schema = node_->output_schema;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Accum& a = accums[i];
    switch (specs[i].kind) {
      case AggKind::kCount:
        row.push_back(Value(a.count));
        break;
      case AggKind::kSum: {
        DataType t =
            out_schema.field(static_cast<int>(group_key_idx_.size() + i)).type;
        if (t == DataType::kInt64) {
          row.push_back(Value(a.isum));
        } else {
          row.push_back(Value(a.dsum));
        }
        break;
      }
      case AggKind::kAvg:
        row.push_back(Value(a.count == 0 ? 0.0 : a.dsum / a.count));
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        CHECK(a.extremum.has_value())
            << "group alive but no extremum for " << specs[i].alias;
        row.push_back(*a.extremum);
        break;
      case AggKind::kCountDistinct:
        row.push_back(Value(static_cast<int64_t>(a.values.size())));
        break;
    }
  }
  return row;
}
#pragma GCC diagnostic pop

std::optional<Row> AggregateOp::CurrentRow(const GroupState& g, int qpos) {
  const QueryState& qs = g.per_query[qpos];
  return RowFromAccums(g.key, qs.row_count, qs.accums);
}

DeltaBatch AggregateOp::EndExecutionArranged() {
  const size_t nq = query_ids_.size();
  std::unordered_map<Row, QuerySet, RowHasher> deletes;
  std::unordered_map<Row, QuerySet, RowHasher> inserts;
  double fold_work = 0;
  std::vector<Accum> accums;
  for (const Row& key : dirty_order_) {
    int64_t rc = arr_->FoldAccums(key, version_, last_metered_version_,
                                  &accums, &fold_work);
    EmitSlot& slot = emit_state_[key];
    std::optional<Row> now = RowFromAccums(key, rc, accums);
    if (slot.emitted && (!now.has_value() || *now != slot.last_emitted)) {
      for (size_t pos = 0; pos < nq; ++pos) {
        deletes[slot.last_emitted].Add(query_ids_[pos]);
      }
      slot.emitted = false;
    }
    if (now.has_value() && !slot.emitted) {
      for (size_t pos = 0; pos < nq; ++pos) {
        inserts[*now].Add(query_ids_[pos]);
      }
      slot.last_emitted = std::move(*now);
      slot.emitted = true;
    }
  }
  // Each per-query accumulator copy of the private layout would have seen
  // the identical update sequence, so the single-copy fold work times the
  // query count is exactly the private meter (integer-valued doubles).
  work_.state += fold_work * static_cast<double>(nq);
  last_metered_version_ = version_;
  dirty_order_.clear();
  dirty_seen_.clear();
  DeltaBatch out;
  out.reserve(deletes.size() + inserts.size());
  for (auto& [row, qset] : deletes) {
    out.emplace_back(row, qset, -1);
    work_.out += 1;
  }
  for (auto& [row, qset] : inserts) {
    out.emplace_back(row, qset, 1);
    work_.out += 1;
  }
  return out;
}

DeltaBatch AggregateOp::EndExecution() {
  EnsureDecided();
  if (arr_ != nullptr) return EndExecutionArranged();
  std::unordered_map<Row, QuerySet, RowHasher> deletes;
  std::unordered_map<Row, QuerySet, RowHasher> inserts;
  for (const Row& key : dirty_order_) {
    auto it = groups_.find(key);
    CHECK(it != groups_.end());
    GroupState& g = it->second;
    for (size_t pos = 0; pos < g.per_query.size(); ++pos) {
      QueryState& qs = g.per_query[pos];
      std::optional<Row> now = CurrentRow(g, static_cast<int>(pos));
      QueryId q = query_ids_[pos];
      if (qs.emitted && (!now.has_value() || *now != qs.last_emitted)) {
        deletes[qs.last_emitted].Add(q);
        qs.emitted = false;
      }
      if (now.has_value() && !qs.emitted) {
        inserts[*now].Add(q);
        qs.last_emitted = std::move(*now);
        qs.emitted = true;
      } else if (now.has_value() && qs.emitted &&
                 *now == qs.last_emitted) {
        // Value unchanged; nothing to emit.
      }
    }
  }
  dirty_order_.clear();
  dirty_seen_.clear();
  DeltaBatch out;
  out.reserve(deletes.size() + inserts.size());
  // Deletes first so downstream state never sees duplicate inserts.
  for (auto& [row, qset] : deletes) {
    out.emplace_back(row, qset, -1);
    work_.out += 1;
  }
  for (auto& [row, qset] : inserts) {
    out.emplace_back(row, qset, 1);
    work_.out += 1;
  }
  return out;
}

void AggregateOp::MaterializeGroups() {
  const size_t nq = query_ids_.size();
  groups_.clear();
  std::vector<Accum> accums;
  for (const Row& key : arr_->KeysAt(version_)) {
    int64_t rc = arr_->FoldAccums(key, version_, version_, &accums,
                                  /*state_work=*/nullptr);
    GroupState& g = groups_[key];
    g.key = key;
    g.per_query.resize(nq);
    auto sit = emit_state_.find(key);
    for (QueryState& qs : g.per_query) {
      qs.row_count = rc;
      qs.accums = accums;
      if (sit != emit_state_.end()) {
        qs.emitted = sit->second.emitted;
        qs.last_emitted = sit->second.last_emitted;
      }
    }
  }
  emit_state_.clear();
  arr_->Detach(reader_);
  arr_ = nullptr;
  reader_ = -1;
}

void AggregateOp::OnInputDiscarded() {
  EnsureDecided();
  // A discarded batch never reaches this operator, so its consumed offset
  // permanently diverges from the shared build stream; a lagging reader
  // would pin compaction forever. Fold to private and carry on.
  if (arr_ != nullptr) MaterializeGroups();
}

void AggregateOp::SetSlackHint(double slack) {
  if (arr_ != nullptr) arr_->SetReaderSlack(reader_, slack);
}

namespace {

std::string EncodeValueKey(const Value& v) {
  recovery::CheckpointWriter w;
  recovery::WriteValue(&w, v);
  return w.Take();
}

}  // namespace

Status AggregateOp::SnapshotPrivateFormat(
    recovery::CheckpointWriter* w,
    const std::unordered_map<Row, GroupState, RowHasher>& groups) const {
  std::vector<std::pair<std::string, const GroupState*>> sorted;
  sorted.reserve(groups.size());
  for (const auto& [key, g] : groups) {
    sorted.emplace_back(recovery::EncodeRowKey(key), &g);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(sorted.size());
  for (const auto& [key_bytes, g] : sorted) {
    w->Str(key_bytes);
    w->U64(g->per_query.size());
    for (const QueryState& qs : g->per_query) {
      w->I64(qs.row_count);
      w->Bool(qs.emitted);
      recovery::WriteRow(w, qs.last_emitted);
      w->U64(qs.accums.size());
      for (const Accum& a : qs.accums) {
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
  }
  w->U64(dirty_order_.size());
  for (const Row& key : dirty_order_) recovery::WriteRow(w, key);
  return Status::OK();
}

Status AggregateOp::Snapshot(recovery::CheckpointWriter* w) const {
  EnsureDecided();
  SnapshotWork(w);
  w->Bool(arr_ != nullptr);
  if (arr_ == nullptr) {
    return SnapshotPrivateFormat(w, groups_);
  }
  // Shared contents live in the catalog's checkpoint; record this
  // reader's stream position plus the op-private emit bookkeeping.
  w->I64(version_);
  w->I64(last_metered_version_);
  std::vector<std::pair<std::string, const EmitSlot*>> sorted;
  sorted.reserve(emit_state_.size());
  for (const auto& [key, slot] : emit_state_) {
    sorted.emplace_back(recovery::EncodeRowKey(key), &slot);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w->U64(sorted.size());
  for (const auto& [key_bytes, slot] : sorted) {
    w->Str(key_bytes);
    w->Bool(slot->emitted);
    recovery::WriteRow(w, slot->last_emitted);
  }
  w->U64(dirty_order_.size());
  for (const Row& key : dirty_order_) recovery::WriteRow(w, key);
  return Status::OK();
}

Status AggregateOp::SnapshotCanonical(recovery::CheckpointWriter* w) const {
  EnsureDecided();
  SnapshotWork(w);
  if (arr_ == nullptr) {
    return SnapshotPrivateFormat(w, groups_);
  }
  // Reconstruct the exact private layout: every group the private
  // operator would have created (all keys first seen at or before this
  // reader's version), each query position carrying the identical fold
  // and the shared emit slot.
  const size_t nq = query_ids_.size();
  std::unordered_map<Row, GroupState, RowHasher> folded;
  std::vector<Accum> accums;
  for (const Row& key : arr_->KeysAt(version_)) {
    int64_t rc = arr_->FoldAccums(key, version_, version_, &accums,
                                  /*state_work=*/nullptr);
    GroupState& g = folded[key];
    g.key = key;
    g.per_query.resize(nq);
    auto sit = emit_state_.find(key);
    for (QueryState& qs : g.per_query) {
      qs.row_count = rc;
      qs.accums = accums;
      if (sit != emit_state_.end()) {
        qs.emitted = sit->second.emitted;
        qs.last_emitted = sit->second.last_emitted;
      }
    }
  }
  return SnapshotPrivateFormat(w, folded);
}

Status AggregateOp::Restore(recovery::CheckpointReader* r) {
  RestoreWork(r);
  bool arranged = r->Bool();
  if (!r->ok()) return r->status();
  groups_.clear();
  dirty_order_.clear();
  dirty_seen_.clear();
  emit_state_.clear();
  if (arranged) {
    if (cand_ == nullptr) {
      r->Fail("arranged aggregate checkpoint without an arrangement catalog");
      return r->status();
    }
    version_ = r->I64();
    last_metered_version_ = r->I64();
    if (arr_ != nullptr) {
      if (!arr_->SetReaderVersion(reader_, version_)) {
        r->Fail("arranged aggregate reader version compacted away");
        return r->status();
      }
    } else {
      reader_ = cand_->Attach(version_);
      if (reader_ < 0) {
        r->Fail("arranged aggregate reader version compacted away");
        return r->status();
      }
      arr_ = cand_;
    }
    decided_ = true;
    uint64_t n = r->U64();
    for (uint64_t i = 0; i < n && r->ok(); ++i) {
      std::string key_bytes = r->Str();
      recovery::CheckpointReader key_reader(key_bytes);
      Row key = recovery::ReadRow(&key_reader);
      if (!key_reader.Finish().ok()) {
        r->Fail("malformed emit-slot key in checkpoint");
        break;
      }
      EmitSlot& slot = emit_state_[key];
      slot.emitted = r->Bool();
      slot.last_emitted = recovery::ReadRow(r);
    }
    uint64_t num_dirty = r->U64();
    for (uint64_t i = 0; i < num_dirty && r->ok(); ++i) {
      Row key = recovery::ReadRow(r);
      if (dirty_seen_.insert(key).second) {
        dirty_order_.push_back(std::move(key));
      }
    }
    return r->status();
  }
  if (arr_ != nullptr) {
    arr_->Detach(reader_);
    arr_ = nullptr;
    reader_ = -1;
  }
  decided_ = true;
  uint64_t num_groups = r->U64();
  for (uint64_t gi = 0; gi < num_groups && r->ok(); ++gi) {
    std::string key_bytes = r->Str();
    recovery::CheckpointReader key_reader(key_bytes);
    Row key = recovery::ReadRow(&key_reader);
    if (!key_reader.Finish().ok()) {
      r->Fail("malformed group key in checkpoint");
      break;
    }
    GroupState& g = groups_[key];
    g.key = key;
    uint64_t nq = r->U64();
    if (nq != query_ids_.size()) {
      r->Fail("aggregate per-query width mismatch");
      break;
    }
    g.per_query.resize(nq);
    for (QueryState& qs : g.per_query) {
      qs.row_count = r->I64();
      qs.emitted = r->Bool();
      qs.last_emitted = recovery::ReadRow(r);
      uint64_t na = r->U64();
      if (na != node_->aggregates.size()) {
        r->Fail("aggregate accumulator count mismatch");
        break;
      }
      qs.accums.resize(na);
      for (Accum& a : qs.accums) {
        a.dsum = r->F64();
        a.isum = r->I64();
        a.count = r->I64();
        a.values.clear();
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
        a.extremum.reset();
        if (r->Bool()) a.extremum = recovery::ReadValue(r);
      }
      if (!r->ok()) break;
    }
  }
  uint64_t num_dirty = r->U64();
  for (uint64_t i = 0; i < num_dirty && r->ok(); ++i) {
    Row key = recovery::ReadRow(r);
    if (dirty_seen_.insert(key).second) dirty_order_.push_back(std::move(key));
  }
  return r->status();
}

int64_t AggregateOp::NumGroups() const {
  EnsureDecided();
  if (arr_ != nullptr) {
    return static_cast<int64_t>(arr_->KeysAt(version_).size());
  }
  return static_cast<int64_t>(groups_.size());
}

int64_t AggregateOp::StateBytes() const {
  int64_t bytes = 0;
  for (const auto& [key, g] : groups_) {
    bytes += ApproxRowBytes(key) + ApproxRowBytes(g.key);
    for (const QueryState& qs : g.per_query) {
      bytes += static_cast<int64_t>(sizeof(QueryState)) +
               ApproxRowBytes(qs.last_emitted);
      for (const Accum& a : qs.accums) {
        bytes += static_cast<int64_t>(sizeof(Accum));
        for (const auto& [v, cnt] : a.values) {
          bytes += ApproxValueBytes(v) + static_cast<int64_t>(sizeof(cnt));
        }
        if (a.extremum.has_value()) bytes += ApproxValueBytes(*a.extremum);
      }
    }
  }
  // Arranged mode: the shared accumulators are the catalog's `arr:`
  // component; only the per-group emit bookkeeping is held privately.
  for (const auto& [key, slot] : emit_state_) {
    bytes += ApproxRowBytes(key) + static_cast<int64_t>(sizeof(EmitSlot)) +
             ApproxRowBytes(slot.last_emitted);
  }
  for (const Row& r : dirty_order_) bytes += ApproxRowBytes(r);
  return bytes;
}

}  // namespace ishare
