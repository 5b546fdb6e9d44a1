#include "ishare/exec/aggregate.h"

#include <algorithm>

#include "ishare/arrange/eligibility.h"

namespace ishare {

AggregateOp::AggregateOp(const PlanNode* node, const Schema& input_schema,
                         const ExecOptions::ArrangeOptions& arrange)
    : PhysOp(node), input_schema_(input_schema) {
  CHECK(node->kind == PlanKind::kAggregate);
  for (const std::string& g : node->group_by) {
    group_key_idx_.push_back(input_schema.IndexOfOrDie(g));
  }
  query_ids_ = node->queries.ToIds();
  // Resolve the candidate arrangement now but attach lazily: a restored
  // operator must attach at its checkpointed version, not at 0.
  if (arrange.enabled() && arrange::EligibleAgg(node)) {
    candidate_ = arrange.catalog->GetOrCreate(arrange::AggGroupsSpec(node));
  }
}

AggregateOp::~AggregateOp() {
  if (Shared()) arr_->Detach(reader_);
}

std::unique_ptr<arrange::Arrangement> AggregateOp::NewOwned() const {
  arrange::ArrangementSpec spec;
  spec.kind = arrange::ArrangementKind::kAggGroups;
  spec.key_idx = group_key_idx_;
  spec.aggs = node_->aggregates;
  spec.input_schema = input_schema_;
  spec.query_ids = query_ids_;
  return std::make_unique<arrange::Arrangement>(std::move(spec));
}

void AggregateOp::Own(std::unique_ptr<arrange::Arrangement> owned) const {
  if (Shared()) arr_->Detach(reader_);
  owned_ = std::move(owned);
  arr_ = owned_.get();
  reader_ = arrange::Arrangement::kOwner;
}

void AggregateOp::EnsureDecided() const {
  if (arr_ != nullptr) return;
  if (candidate_ != nullptr) {
    reader_ = candidate_->Attach(version_);
    if (reader_ >= 0) {
      arr_ = candidate_;
      return;
    }
  }
  // Ineligible, or compacted past our offset.
  Own(NewOwned());
}

DeltaBatch AggregateOp::Process(int child_idx, DeltaBatch in) {
  CHECK_EQ(child_idx, 0);
  EnsureDecided();
  // An owned arrangement applies every tuple, so it takes the keys along;
  // a shared one extracts the keys of the few tuples it applies itself.
  const bool keep_keys = !Shared();
  std::vector<Row> keys;
  if (keep_keys) keys.reserve(in.size());
  for (const DeltaTuple& t : in) {
    work_.in += 1;
    Row key = ExtractColumns(t.row, group_key_idx_);
    if (dirty_seen_.insert(key).second) dirty_order_.push_back(key);
    if (keep_keys) keys.push_back(std::move(key));
  }
  // An owned arrangement meters its accumulator work here; a shared one
  // is metered by the fold in EndExecution.
  const int64_t n = static_cast<int64_t>(in.size());
  arr_->Advance(reader_, std::move(in), std::move(keys), &work_.state);
  version_ += n;
  return {};  // blocking: output released in EndExecution
}

// GCC 12's -Wmaybe-uninitialized falsely fires on the engaged
// optional<Value>/variant string alternative when the row vector
// reallocates during push_back (PR 105562-style false positive).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::optional<Row> AggregateOp::RowFromAccums(
    const Row& key, int64_t row_count,
    const std::vector<arrange::AccumCell>& accums) const {
  if (row_count <= 0) return std::nullopt;
  Row row = key;
  const auto& specs = node_->aggregates;
  const Schema& out_schema = node_->output_schema;
  for (size_t i = 0; i < specs.size(); ++i) {
    const arrange::AccumCell& a = accums[i];
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

DeltaBatch AggregateOp::EndExecution() {
  EnsureDecided();
  std::unordered_map<Row, QuerySet, RowHasher> deletes;
  std::unordered_map<Row, QuerySet, RowHasher> inserts;
  double fold_work = 0;
  std::vector<arrange::GroupAccums> scratch;
  for (const Row& key : dirty_order_) {
    const std::vector<arrange::GroupAccums>& groups = arr_->Group(
        key, version_, last_metered_version_, &scratch, &fold_work);
    std::vector<EmitSlot>& slots = emit_[key];
    if (slots.empty()) slots.resize(groups.size());
    for (size_t p = 0; p < slots.size(); ++p) {
      EmitSlot& slot = slots[p];
      std::optional<Row> now =
          RowFromAccums(key, groups[p].row_count, groups[p].accums);
      // A single position speaks for every query.
      auto add = [&](QuerySet* qs) {
        if (slots.size() == 1) {
          for (QueryId q : query_ids_) qs->Add(q);
        } else {
          qs->Add(query_ids_[p]);
        }
      };
      if (slot.emitted && (!now.has_value() || *now != slot.last_emitted)) {
        add(&deletes[slot.last_emitted]);
        slot.emitted = false;
      }
      if (now.has_value() && !slot.emitted) {
        add(&inserts[*now]);
        slot.last_emitted = std::move(*now);
        slot.emitted = true;
      }
    }
  }
  // Every per-query accumulator copy sees the identical update sequence,
  // so a shared fold's single-copy work times the query count is exactly
  // what an owned arrangement meters as it applies (integer-valued
  // doubles).
  work_.state += fold_work * static_cast<double>(query_ids_.size());
  last_metered_version_ = version_;
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

void AggregateOp::OnInputDiscarded() {
  EnsureDecided();
  if (!Shared()) return;
  // A discarded batch never reaches this operator, so its consumed offset
  // permanently diverges from the shared build stream, and a lagging reader
  // would pin compaction forever. Fork what it has read and carry on, one
  // emit slot per query from here on.
  Own(arr_->Fork(version_, query_ids_));
  for (auto& [key, slots] : emit_) {
    const EmitSlot slot = slots[0];
    slots.assign(query_ids_.size(), slot);
  }
}

void AggregateOp::SetSlackHint(double slack) {
  if (Shared()) arr_->SetReaderSlack(reader_, slack);
}

Status AggregateOp::Write(recovery::CheckpointWriter* w,
                          bool canonical) const {
  EnsureDecided();
  SnapshotWork(w);
  if (!canonical) w->Bool(Shared());
  if (!canonical && Shared()) {
    // Shared contents live in the catalog's checkpoint; record this
    // reader's stream position plus its emit bookkeeping.
    w->I64(version_);
    w->I64(last_metered_version_);
    std::vector<std::pair<std::string, const EmitSlot*>> sorted;
    sorted.reserve(emit_.size());
    for (const auto& [key, slots] : emit_) {
      sorted.emplace_back(recovery::EncodeRowKey(key), &slots[0]);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w->U64(sorted.size());
    for (const auto& [key_bytes, slot] : sorted) {
      w->Str(key_bytes);
      w->Bool(slot->emitted);
      recovery::WriteRow(w, slot->last_emitted);
    }
  } else {
    // The owned layout: every group this reader has seen, each query
    // position with its row count, emit slot and accumulators.
    const auto keys = arr_->KeysAt(version_);
    const size_t nq = query_ids_.size();
    const EmitSlot never_emitted;
    std::vector<arrange::GroupAccums> scratch;
    w->U64(keys.size());
    for (const auto& [key_bytes, key] : keys) {
      const std::vector<arrange::GroupAccums>& groups =
          arr_->Group(key, version_, version_, &scratch, nullptr);
      auto it = emit_.find(key);
      w->Str(key_bytes);
      w->U64(nq);
      for (size_t p = 0; p < nq; ++p) {
        const arrange::GroupAccums& g = groups[groups.size() == 1 ? 0 : p];
        const EmitSlot& slot =
            it == emit_.end()
                ? never_emitted
                : it->second[it->second.size() == 1 ? 0 : p];
        w->I64(g.row_count);
        w->Bool(slot.emitted);
        recovery::WriteRow(w, slot.last_emitted);
        arrange::WriteAccums(w, g.accums);
      }
    }
  }
  w->U64(dirty_order_.size());
  for (const Row& key : dirty_order_) recovery::WriteRow(w, key);
  return Status::OK();
}

Status AggregateOp::Snapshot(recovery::CheckpointWriter* w) const {
  return Write(w, /*canonical=*/false);
}

Status AggregateOp::SnapshotCanonical(recovery::CheckpointWriter* w) const {
  return Write(w, /*canonical=*/true);
}

Status AggregateOp::Restore(recovery::CheckpointReader* r) {
  RestoreWork(r);
  bool shared = r->Bool();
  if (!r->ok()) return r->status();
  dirty_order_.clear();
  dirty_seen_.clear();
  emit_.clear();
  if (shared) {
    if (candidate_ == nullptr) {
      r->Fail("shared aggregate checkpoint without an arrangement catalog");
      return r->status();
    }
    version_ = r->I64();
    last_metered_version_ = r->I64();
    if (Shared()) {
      if (!arr_->SetReaderVersion(reader_, version_)) {
        r->Fail("shared aggregate reader version compacted away");
        return r->status();
      }
    } else {
      reader_ = candidate_->Attach(version_);
      if (reader_ < 0) {
        r->Fail("shared aggregate reader version compacted away");
        return r->status();
      }
      owned_.reset();
      arr_ = candidate_;
    }
    uint64_t n = r->U64();
    for (uint64_t i = 0; i < n && r->ok(); ++i) {
      Row key = recovery::ReadRowKey(r);
      EmitSlot slot;
      slot.emitted = r->Bool();
      slot.last_emitted = recovery::ReadRow(r);
      emit_[std::move(key)].assign(1, std::move(slot));
    }
  } else {
    Own(NewOwned());
    version_ = 0;
    last_metered_version_ = 0;
    const size_t nq = query_ids_.size();
    uint64_t num_groups = r->U64();
    for (uint64_t gi = 0; gi < num_groups && r->ok(); ++gi) {
      Row key = recovery::ReadRowKey(r);
      if (r->ok() && r->U64() != nq) {
        r->Fail("aggregate per-query width mismatch");
      }
      if (!r->ok()) break;
      std::vector<EmitSlot>& slots = emit_[key];
      slots.resize(nq);
      std::vector<arrange::GroupAccums>& groups =
          *owned_->MutableGroup(std::move(key));
      for (size_t p = 0; p < nq && r->ok(); ++p) {
        groups[p].row_count = r->I64();
        slots[p].emitted = r->Bool();
        slots[p].last_emitted = recovery::ReadRow(r);
        if (arrange::ReadAccums(r, &groups[p].accums) !=
            node_->aggregates.size()) {
          r->Fail("aggregate accumulator count mismatch");
        }
      }
    }
  }
  uint64_t num_dirty = r->U64();
  for (uint64_t i = 0; i < num_dirty && r->ok(); ++i) {
    Row key = recovery::ReadRow(r);
    if (dirty_seen_.insert(key).second) dirty_order_.push_back(std::move(key));
  }
  return r->status();
}

int64_t AggregateOp::StateBytes() const {
  // A shared arrangement's accumulators are its `arr:` component; the
  // operator keeps only emit bookkeeping, one slot and key per group.
  const bool shared = Shared();
  int64_t bytes = (arr_ == nullptr || shared) ? 0 : arr_->StateBytes();
  for (const auto& [key, slots] : emit_) {
    if (shared) {
      bytes += ApproxRowBytes(key) + static_cast<int64_t>(sizeof(EmitSlot));
    }
    for (const EmitSlot& slot : slots) {
      bytes += ApproxRowBytes(slot.last_emitted);
    }
  }
  for (const Row& r : dirty_order_) bytes += ApproxRowBytes(r);
  return bytes;
}

}  // namespace ishare
