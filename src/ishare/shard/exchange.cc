#include "ishare/shard/exchange.h"

#include <algorithm>
#include <utility>

namespace ishare::shard {

namespace {

// Schema of the per-partition clock tables: one int64 column carrying the
// global dataset index of the row whose arrival it represents.
Schema ClockSchema() {
  return Schema({{"idx", DataType::kInt64}});
}

}  // namespace

Status ExchangeFabric::Init(const StreamSource& dataset,
                            const ShardPlan& plan, ExchangeOptions opts) {
  if (!tables_.empty()) {
    return Status::InvalidArgument("exchange fabric already initialized");
  }
  if (opts.num_shards < 1) {
    return Status::InvalidArgument("bad shard count " +
                                   std::to_string(opts.num_shards));
  }
  if (opts.num_partitions < 0) {
    return Status::InvalidArgument("bad partition count " +
                                   std::to_string(opts.num_partitions));
  }
  opts_ = std::move(opts);
  num_partitions_ =
      opts_.num_partitions > 0 ? opts_.num_partitions : opts_.num_shards;

  // The whole window in dataset order, obtained without reaching into the
  // source's protected state: clone the datasets and release everything.
  StreamSource probe;
  ISHARE_RETURN_NOT_OK(dataset.CloneTablesInto(&probe));
  ISHARE_RETURN_NOT_OK(probe.AdvanceTo(1.0));

  // Copy datasets and precompute routing.
  for (const std::string& name : dataset.TableNames()) {
    const DeltaBuffer* buf = probe.buffer(name);
    CHECK(buf != nullptr);
    ISHARE_RETURN_NOT_OK(ValidateShardKey(plan, name, buf->schema()));
    TableX t;
    t.name = name;
    t.schema = buf->schema();
    t.rows = buf->log();

    auto key_it = plan.keys.find(name);
    if (key_it != plan.keys.end()) {
      t.key_col = t.schema.IndexOf(key_it->second);
      CHECK(t.key_col >= 0);
      t.owner.reserve(t.rows.size());
      for (const DeltaTuple& d : t.rows) {
        t.owner.push_back(
            OwnerShard(d.row[static_cast<size_t>(t.key_col)],
                       opts_.num_shards));
      }
    }
    t.lanes.resize(static_cast<size_t>(opts_.num_shards));
    tables_.emplace(name, std::move(t));
  }

  // Build the per-partition clock sources (perturbed when asked; seeded
  // per partition so partitions drift independently, replay identically).
  held_.assign(static_cast<size_t>(num_partitions_), false);
  clock_consumers_.resize(static_cast<size_t>(num_partitions_));
  for (int p = 0; p < num_partitions_; ++p) {
    std::unique_ptr<StreamSource> clock;
    if (!opts_.partition_perturbation.empty()) {
      FaultPlan fp = opts_.partition_perturbation;
      fp.seed = fp.seed + static_cast<uint64_t>(p);
      ISHARE_RETURN_NOT_OK(fp.Validate());
      clock = std::make_unique<PerturbedStreamSource>(std::move(fp));
    } else {
      clock = std::make_unique<StreamSource>();
    }
    for (auto& [name, t] : tables_) {
      std::vector<Row> idx_rows;
      for (int64_t i = p; i < static_cast<int64_t>(t.rows.size());
           i += num_partitions_) {
        idx_rows.push_back({Value(i)});
      }
      DeltaBuffer* cb = clock->AddTable(name, ClockSchema(),
                                        std::move(idx_rows));
      CHECK(cb != nullptr);
      clock_consumers_[static_cast<size_t>(p)][name] = cb->RegisterConsumer();
    }
    clocks_.push_back(std::move(clock));
  }

  staging_bytes_.assign(static_cast<size_t>(opts_.num_shards), 0);
  return Status::OK();
}

std::vector<std::string> ExchangeFabric::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

const Schema* ExchangeFabric::TableSchema(const std::string& table) const {
  const TableX* t = FindTable(table);
  return t == nullptr ? nullptr : &t->schema;
}

ExchangeFabric::TableX* ExchangeFabric::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const ExchangeFabric::TableX* ExchangeFabric::FindTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

void ExchangeFabric::RouteRow(TableX& t, int64_t idx) {
  int64_t bytes = ApproxDeltaBytes(t.rows[static_cast<size_t>(idx)]);
  auto deliver = [&](int s) {
    ShardLane& lane = t.lanes[static_cast<size_t>(s)];
    bool inserted = lane.pending.insert(idx).second;
    CHECK(inserted) << "row " << idx << " of '" << t.name
                    << "' delivered twice to shard " << s;
    staging_bytes_[static_cast<size_t>(s)] += bytes;
    stats_.delivered_tuples += 1;
    stats_.delivered_bytes += bytes;
  };
  if (t.key_col < 0) {
    for (int s = 0; s < opts_.num_shards; ++s) deliver(s);
  } else {
    deliver(t.owner[static_cast<size_t>(idx)]);
  }
}

Status ExchangeFabric::DeliverUpTo(double fraction, const Fraction* exact) {
  for (int p = 0; p < num_partitions_; ++p) {
    StreamSource* clock = clocks_[static_cast<size_t>(p)].get();
    bool trigger = fraction >= 1.0 - 1e-12;
    if (held_[static_cast<size_t>(p)] && !trigger) continue;
    // A straggler shard re-asking for an older point must not rewind a
    // clock a leader already advanced.
    if (fraction > clock->current_fraction() + 1e-15 || trigger) {
      if (exact != nullptr) {
        ISHARE_RETURN_NOT_OK(clock->AdvanceToStep(exact->num, exact->den));
      } else {
        ISHARE_RETURN_NOT_OK(clock->AdvanceTo(fraction));
      }
    }
    // Route everything the clock newly released, in its release order
    // (canonicalization happens at drain time, not here).
    for (auto& [name, t] : tables_) {
      DeltaBuffer* cb = clock->buffer(name);
      int consumer = clock_consumers_[static_cast<size_t>(p)].at(name);
      ISHARE_ASSIGN_OR_RETURN(DeltaSpan span, cb->ConsumeNew(consumer));
      for (const DeltaTuple& d : span) {
        RouteRow(t, d.row[0].AsInt());
      }
    }
  }
  PublishStagingBytes();
  return Status::OK();
}

Status ExchangeFabric::HoldPartition(int p) {
  if (p < 0 || p >= num_partitions_) {
    return Status::InvalidArgument("bad partition " + std::to_string(p));
  }
  if (!held_[static_cast<size_t>(p)]) stats_.holds += 1;
  held_[static_cast<size_t>(p)] = true;
  return Status::OK();
}

Status ExchangeFabric::ReleasePartition(int p) {
  if (p < 0 || p >= num_partitions_) {
    return Status::InvalidArgument("bad partition " + std::to_string(p));
  }
  held_[static_cast<size_t>(p)] = false;
  return Status::OK();
}

bool ExchangeFabric::IsHeld(int p) const {
  return p >= 0 && p < num_partitions_ && held_[static_cast<size_t>(p)];
}

int64_t ExchangeFabric::ReleasableCount(const std::string& table,
                                        int shard) {
  TableX* t = FindTable(table);
  CHECK(t != nullptr) << "unknown table '" << table << "'";
  CHECK(shard >= 0 && shard < opts_.num_shards);
  ShardLane& lane = t->lanes[static_cast<size_t>(shard)];
  // Canonical order: ascending global index restricted to owned rows.
  // Rows at/after the cursor are undrained, so delivered == pending.
  int64_t total = static_cast<int64_t>(t->rows.size());
  while (true) {
    // Advance the cursor to the shard's next owned index.
    int64_t idx = lane.cursor;
    if (t->key_col >= 0) {
      while (idx < total &&
             t->owner[static_cast<size_t>(idx)] != shard) {
        ++idx;
      }
    }
    if (idx >= total) {
      lane.cursor = total;
      break;
    }
    if (lane.pending.find(idx) == lane.pending.end()) {
      lane.cursor = idx;  // not yet delivered: prefix ends here
      break;
    }
    lane.cursor = idx + 1;
  }
  // Count owned rows strictly below the cursor.
  if (t->key_col < 0) return std::min(lane.cursor, total);
  // consumed rows plus pending rows below the cursor form the prefix.
  int64_t below = lane.consumed;
  for (auto it = lane.pending.begin();
       it != lane.pending.end() && *it < lane.cursor; ++it) {
    ++below;
  }
  return below;
}

int64_t ExchangeFabric::ConsumedCount(const std::string& table,
                                      int shard) const {
  const TableX* t = FindTable(table);
  CHECK(t != nullptr) << "unknown table '" << table << "'";
  CHECK(shard >= 0 && shard < opts_.num_shards);
  return t->lanes[static_cast<size_t>(shard)].consumed;
}

int64_t ExchangeFabric::OwnedRows(const std::string& table,
                                  int shard) const {
  const TableX* t = FindTable(table);
  CHECK(t != nullptr) << "unknown table '" << table << "'";
  CHECK(shard >= 0 && shard < opts_.num_shards);
  if (t->key_col < 0) return static_cast<int64_t>(t->rows.size());
  int64_t n = 0;
  for (int o : t->owner) n += (o == shard) ? 1 : 0;
  return n;
}

Status ExchangeFabric::DrainCanonical(const std::string& table, int shard,
                                      int64_t count,
                                      std::vector<DeltaTuple>* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("null drain destination");
  }
  if (count < 0) {
    return Status::InvalidArgument("negative drain count " +
                                   std::to_string(count));
  }
  TableX* t = FindTable(table);
  if (t == nullptr) {
    return Status::NotFound("unknown exchange table '" + table + "'");
  }
  if (shard < 0 || shard >= opts_.num_shards) {
    return Status::InvalidArgument("bad shard " + std::to_string(shard));
  }
  ShardLane& lane = t->lanes[static_cast<size_t>(shard)];
  int64_t last = -1;
  for (int64_t k = 0; k < count; ++k) {
    CHECK(!lane.pending.empty())
        << "drain of " << count << " canonical rows from '" << table
        << "' shard " << shard << " ran dry at " << k;
    auto it = lane.pending.begin();
    int64_t idx = *it;
    // The canonicalization assert (DESIGN.md §14): the smallest in-flight
    // index must be the next canonical row — every canonically earlier
    // owned row has been consumed, so out-of-order *delivery* can never
    // become out-of-order *consumption*. The drained sequence is strictly
    // ascending and owner-correct or the process dies.
    CHECK(idx > last) << "non-canonical drain order on '" << table
                      << "' shard " << shard << ": " << idx << " after "
                      << last;
    last = idx;
    if (t->key_col >= 0) {
      CHECK(t->owner[static_cast<size_t>(idx)] == shard)
          << "row " << idx << " staged on non-owner shard " << shard;
    }
    const DeltaTuple& d = t->rows[static_cast<size_t>(idx)];
    staging_bytes_[static_cast<size_t>(shard)] -= ApproxDeltaBytes(d);
    out->push_back(d);
    lane.pending.erase(it);
    lane.consumed += 1;
    stats_.drained_tuples += 1;
  }
  PublishStagingBytes();
  return Status::OK();
}

void ExchangeFabric::ResetDelivery() {
  for (auto& clock : clocks_) clock->Reset();
  for (auto& [name, t] : tables_) {
    for (ShardLane& lane : t.lanes) {
      lane.pending.clear();
      lane.consumed = 0;
      lane.cursor = 0;
    }
  }
  std::fill(held_.begin(), held_.end(), false);
  std::fill(staging_bytes_.begin(), staging_bytes_.end(), 0);
  PublishStagingBytes();
}

void ExchangeFabric::AttachBudget(flow::MemoryBudget* budget) {
  budget_ = budget;
  budget_components_.clear();
  if (budget_ == nullptr) return;
  for (int s = 0; s < opts_.num_shards; ++s) {
    budget_components_.push_back(
        budget_->Register("xchg:s" + std::to_string(s)));
  }
  PublishStagingBytes();
}

int64_t ExchangeFabric::StagingBytes(int shard) const {
  CHECK(shard >= 0 && shard < opts_.num_shards);
  return staging_bytes_[static_cast<size_t>(shard)];
}

void ExchangeFabric::PublishStagingBytes() {
  if (budget_ == nullptr) return;
  for (int s = 0; s < opts_.num_shards; ++s) {
    budget_->Set(budget_components_[static_cast<size_t>(s)],
                 staging_bytes_[static_cast<size_t>(s)]);
  }
}

ExchangeShardSource::ExchangeShardSource(ExchangeFabric* fabric, int shard)
    : fabric_(fabric), shard_(shard) {
  CHECK(fabric != nullptr);
  CHECK(shard >= 0 && shard < fabric->num_shards());
  // Tables start empty: the exchange delivers their rows incrementally.
  for (const std::string& name : fabric_->TableNames()) {
    const Schema* schema = fabric_->TableSchema(name);
    CHECK(schema != nullptr);
    DeltaBuffer* buf = AddTableDeltas(name, *schema, {});
    CHECK(buf != nullptr);
  }
}

Status ExchangeShardSource::DoAdvance(double fraction,
                                      const Fraction* exact) {
  ISHARE_RETURN_NOT_OK(fabric_->DeliverUpTo(fraction, exact));
  for (const std::string& name : fabric_->TableNames()) {
    int64_t releasable = fabric_->ReleasableCount(name, shard_);
    int64_t have = fabric_->ConsumedCount(name, shard_);
    if (releasable <= have) continue;
    std::vector<DeltaTuple> batch;
    batch.reserve(static_cast<size_t>(releasable - have));
    ISHARE_RETURN_NOT_OK(
        fabric_->DrainCanonical(name, shard_, releasable - have, &batch));
    DeltaBuffer* buf = buffer(name);
    CHECK(buf != nullptr);
    // Contiguity with everything appended so far: the base log is the
    // canonical sequence, full stop.
    CHECK(buf->size() == have)
        << "shard " << shard_ << " base log of '" << name
        << "' out of sync with the fabric (" << buf->size() << " vs "
        << have << ")";
    buf->AppendBatch(std::move(batch));
  }
  return Status::OK();
}

}  // namespace ishare::shard
