#include "ishare/shard/exchange.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ishare::shard {

Status ExchangeFabric::Init(const StreamSource& dataset,
                            const ShardPlan& plan, int num_shards,
                            flow::MemoryBudget* budget) {
  if (!tables_.empty()) {
    return Status::InvalidArgument("exchange fabric already initialized");
  }
  if (num_shards < 1) {
    return Status::InvalidArgument("bad shard count " +
                                   std::to_string(num_shards));
  }
  num_shards_ = num_shards;
  const size_t n_shards = static_cast<size_t>(num_shards_);

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
    t.schema = buf->schema();
    t.rows = buf->log();
    t.delivered.assign(n_shards, 0);
    t.lanes.resize(n_shards);
    const int64_t n = static_cast<int64_t>(t.rows.size());

    auto key_it = plan.keys.find(name);
    t.broadcast = key_it == plan.keys.end();
    if (t.broadcast) {
      for (ShardLane& lane : t.lanes) {
        lane.owned.resize(static_cast<size_t>(n));
        std::iota(lane.owned.begin(), lane.owned.end(), int64_t{0});
      }
    } else {
      const int key_col = t.schema.IndexOf(key_it->second);
      CHECK(key_col >= 0);
      t.owner.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        const int s = OwnerShard(
            t.rows[static_cast<size_t>(i)].row[static_cast<size_t>(key_col)],
            num_shards_);
        t.owner.push_back(s);
        t.lanes[static_cast<size_t>(s)].owned.push_back(i);
      }
    }
    tables_.emplace(name, std::move(t));
  }

  staging_bytes_.assign(n_shards, 0);
  budget_ = budget;
  if (budget_ != nullptr) {
    for (int s = 0; s < num_shards_; ++s) {
      budget_components_.push_back(
          budget_->Register("xchg:s" + std::to_string(s)));
    }
    PublishStagingBytes();
  }
  return Status::OK();
}

void ExchangeFabric::AddEmptyTables(StreamSource* source) const {
  for (const auto& [name, t] : tables_) {
    CHECK(source->AddTableDeltas(name, t.schema, {}) != nullptr);
  }
}

ExchangeFabric::ShardLane& ExchangeFabric::Lane(const std::string& table,
                                                int shard) {
  auto it = tables_.find(table);
  CHECK(it != tables_.end()) << "unknown table '" << table << "'";
  CHECK(shard >= 0 && shard < num_shards_) << "bad shard " << shard;
  return it->second.lanes[static_cast<size_t>(shard)];
}

Status ExchangeFabric::DeliverUpTo(const Fraction& point) {
  if (point.den <= 0 || point.num < 0 || point.num > point.den) {
    return Status::InvalidArgument("bad window point " +
                                   std::to_string(point.num) + "/" +
                                   std::to_string(point.den));
  }
  for (auto& [name, t] : tables_) {
    const int64_t n = static_cast<int64_t>(t.rows.size());
    for (int64_t p = 0; p < num_shards_ && p < n; ++p) {
      const int64_t n_p = (n - p + num_shards_ - 1) / num_shards_;
      const int64_t target = point.num * n_p / point.den;
      int64_t& count = t.delivered[static_cast<size_t>(p)];
      // Stage each newly delivered row for its owner (every shard, if
      // broadcast).
      for (; count < target; ++count) {
        const int64_t idx = count * num_shards_ + p;
        const int64_t bytes =
            ApproxDeltaBytes(t.rows[static_cast<size_t>(idx)]);
        const int first =
            t.broadcast ? 0 : t.owner[static_cast<size_t>(idx)];
        const int last = t.broadcast ? num_shards_ - 1 : first;
        for (int s = first; s <= last; ++s) {
          staging_bytes_[static_cast<size_t>(s)] += bytes;
          stats_.delivered_tuples += 1;
          stats_.delivered_bytes += bytes;
        }
      }
    }
  }
  PublishStagingBytes();
  return Status::OK();
}

int64_t ExchangeFabric::ReleasableCount(const std::string& table,
                                        int shard) {
  ShardLane& lane = Lane(table, shard);
  const TableX& t = tables_.at(table);
  const int64_t owned = static_cast<int64_t>(lane.owned.size());
  while (lane.released < owned) {
    // The owned row's global index idx is the (idx / N)-th row of arrival
    // partition idx mod N.
    const int64_t idx = lane.owned[static_cast<size_t>(lane.released)];
    if (idx / num_shards_ >=
        t.delivered[static_cast<size_t>(idx % num_shards_)]) {
      break;
    }
    ++lane.released;
  }
  return lane.released;
}

int64_t ExchangeFabric::OwnedRows(const std::string& table, int shard) {
  return static_cast<int64_t>(Lane(table, shard).owned.size());
}

int64_t ExchangeFabric::DrainReleasable(const std::string& table, int shard,
                                        std::vector<DeltaTuple>* out) {
  const int64_t releasable = ReleasableCount(table, shard);
  ShardLane& lane = Lane(table, shard);
  const int64_t from = lane.drained;
  if (releasable == from) return from;
  const TableX& t = tables_.at(table);
  out->reserve(out->size() + static_cast<size_t>(releasable - from));
  for (; lane.drained < releasable; ++lane.drained) {
    const DeltaTuple& d = t.rows[static_cast<size_t>(
        lane.owned[static_cast<size_t>(lane.drained)])];
    staging_bytes_[static_cast<size_t>(shard)] -= ApproxDeltaBytes(d);
    out->push_back(d);
  }
  stats_.drained_tuples += releasable - from;
  PublishStagingBytes();
  return from;
}

void ExchangeFabric::ResetDelivery() {
  for (auto& [name, t] : tables_) {
    std::fill(t.delivered.begin(), t.delivered.end(), 0);
    for (ShardLane& lane : t.lanes) {
      lane.released = 0;
      lane.drained = 0;
    }
  }
  std::fill(staging_bytes_.begin(), staging_bytes_.end(), 0);
  PublishStagingBytes();
}

int64_t ExchangeFabric::StagingBytes(int shard) const {
  CHECK(shard >= 0 && shard < num_shards_);
  return staging_bytes_[static_cast<size_t>(shard)];
}

void ExchangeFabric::PublishStagingBytes() {
  if (budget_ == nullptr) return;
  for (int s = 0; s < num_shards_; ++s) {
    budget_->Set(budget_components_[static_cast<size_t>(s)],
                 staging_bytes_[static_cast<size_t>(s)]);
  }
}

ExchangeShardSource::ExchangeShardSource(ExchangeFabric* fabric, int shard)
    : fabric_(fabric), shard_(shard) {
  CHECK(fabric != nullptr);
  CHECK(shard >= 0 && shard < fabric->num_shards());
  fabric_->AddEmptyTables(this);
}

Status ExchangeShardSource::DoAdvance(double /*fraction*/,
                                      const Fraction* exact) {
  if (exact == nullptr) {
    return Status::InvalidArgument(
        "exchange shard source " + std::to_string(shard_) +
        " advances only to exact window points");
  }
  ISHARE_RETURN_NOT_OK(fabric_->DeliverUpTo(*exact));
  for (auto& [name, t] : tables_) {
    std::vector<DeltaTuple> batch;
    const int64_t have = fabric_->DrainReleasable(name, shard_, &batch);
    if (batch.empty()) continue;
    // Contiguity with everything appended so far: the base log is the
    // owned rows in dataset order, full stop.
    CHECK(t->buffer->size() == have)
        << "shard " << shard_ << " base log of '" << name
        << "' out of sync with the fabric (" << t->buffer->size() << " vs "
        << have << ")";
    t->buffer->AppendBatch(std::move(batch));
  }
  return Status::OK();
}

}  // namespace ishare::shard
