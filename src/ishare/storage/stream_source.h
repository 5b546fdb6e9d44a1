#ifndef ISHARE_STORAGE_STREAM_SOURCE_H_
#define ISHARE_STORAGE_STREAM_SOURCE_H_

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ishare/common/check.h"
#include "ishare/common/fraction.h"
#include "ishare/common/status.h"
#include "ishare/storage/delta_buffer.h"

namespace ishare {

// Simulates the Kafka data source of the paper's prototype: the complete
// dataset for one trigger condition (e.g. the daily load) is preloaded, and
// rows are released into per-table base buffers as the (logical) trigger
// window progresses. Advancing to data fraction t in [0, 1] appends
// floor(t * total) rows of every table.
//
// The paper assumes a fixed arrival rate, so a data fraction maps linearly
// to wall-clock time within the trigger window. PerturbedStreamSource
// overrides the release schedule to model the bursts, stalls and drift
// real deployments see; executors therefore drive the source through the
// virtual advance spine and must not assume uniform arrival.
//
// Advancement is part of the recoverable error spine: malformed or
// backwards window steps return Status instead of aborting.
class StreamSource {
 public:
  StreamSource() = default;
  virtual ~StreamSource() = default;

  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  // Registers a table with its full dataset for the trigger window.
  // Returns the base buffer that scans consume from, or nullptr if the
  // table name is already registered.
  DeltaBuffer* AddTable(const std::string& name, Schema schema,
                        std::vector<Row> rows) {
    std::vector<DeltaTuple> deltas;
    deltas.reserve(rows.size());
    for (Row& r : rows) {
      deltas.emplace_back(std::move(r), QuerySet(), /*weight=*/1);
    }
    return AddTableDeltas(name, std::move(schema), std::move(deltas));
  }

  // Like AddTable, but the window may contain deletes and updates (an
  // update is a -1 tuple followed by a +1 tuple). Weights are released in
  // order as the window progresses; a delete must come after its insert.
  DeltaBuffer* AddTableDeltas(const std::string& name, Schema schema,
                              std::vector<DeltaTuple> deltas) {
    if (tables_.find(name) != tables_.end()) return nullptr;
    auto t = std::make_unique<TableStream>();
    t->buffer = std::make_unique<DeltaBuffer>(std::move(schema), name);
    t->rows = std::move(deltas);
    DeltaBuffer* buf = t->buffer.get();
    tables_[name] = std::move(t);
    return buf;
  }

  // Base buffer of `name`, or nullptr for an unknown table.
  DeltaBuffer* buffer(const std::string& name) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) return nullptr;
    return it->second->buffer.get();
  }

  // Window size of `name` in rows, or -1 for an unknown table.
  int64_t TotalRows(const std::string& name) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) return -1;
    return static_cast<int64_t>(it->second->rows.size());
  }

  // Releases rows so that each table has received the rational window
  // point num/den of its data. Pace schedules are sets of such points;
  // computing the release target as floor(num * total / den) in integers
  // keeps the schedule exact even for paces whose reciprocals are not
  // representable in binary (3, 7, 11, ...). Points must be
  // non-decreasing across calls.
  Status AdvanceToStep(int64_t num, int64_t den) {
    if (den <= 0 || num < 0 || num > den) {
      return Status::InvalidArgument("bad window step " + std::to_string(num) +
                                     "/" + std::to_string(den));
    }
    Fraction f = Fraction::Make(num, den);
    double fraction = f.ToDouble();
    if (fraction < current_fraction_ - 1e-12) {
      return Status::InvalidArgument(
          "stream cannot move backwards (at " +
          std::to_string(current_fraction_) + ", asked " +
          std::to_string(fraction) + ")");
    }
    current_fraction_ = std::max(current_fraction_, fraction);
    return DoAdvance(fraction, &f);
  }

  double current_fraction() const { return current_fraction_; }

  // Rewinds the stream and clears all base buffers (consumer offsets reset).
  // The preloaded datasets are kept, so an experiment can be re-run.
  virtual void Reset() {
    current_fraction_ = 0.0;
    for (auto& [name, t] : tables_) {
      t->released = 0;
      t->buffer->Reset();
    }
  }

  std::vector<std::string> TableNames() const {
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [name, t] : tables_) names.push_back(name);
    return names;
  }

  // Copies every preloaded table (dataset, not release state) into `dst`.
  // Used to replay one dataset through differently perturbed sources.
  Status CloneTablesInto(StreamSource* dst) const {
    if (dst == nullptr) {
      return Status::InvalidArgument("null clone destination");
    }
    for (const auto& [name, t] : tables_) {
      if (dst->AddTableDeltas(name, t->buffer->schema(), t->rows) ==
          nullptr) {
        return Status::AlreadyExists("table '" + name +
                                     "' already present in destination");
      }
    }
    return Status::OK();
  }

  // Copies the num/den-prefix of every preloaded table into `dst`, using
  // the same exact integer arithmetic as DoAdvance (floor(num*total/den)
  // rows per table). A fresh engine over the clone therefore sees exactly
  // the data a running engine had received at window point num/den —
  // the reference side of the churn bit-exactness gates (DESIGN.md §13).
  Status CloneTablePrefixesInto(StreamSource* dst, int64_t num,
                                int64_t den) const {
    if (dst == nullptr) {
      return Status::InvalidArgument("null clone destination");
    }
    if (den <= 0 || num < 0 || num > den) {
      return Status::InvalidArgument("bad prefix point " +
                                     std::to_string(num) + "/" +
                                     std::to_string(den));
    }
    for (const auto& [name, t] : tables_) {
      int64_t total = static_cast<int64_t>(t->rows.size());
      int64_t target = num * total / den;
      std::vector<DeltaTuple> prefix(t->rows.begin(),
                                     t->rows.begin() + target);
      if (dst->AddTableDeltas(name, t->buffer->schema(), std::move(prefix)) ==
          nullptr) {
        return Status::AlreadyExists("table '" + name +
                                     "' already present in destination");
      }
    }
    return Status::OK();
  }

 protected:
  struct TableStream {
    std::unique_ptr<DeltaBuffer> buffer;
    std::vector<DeltaTuple> rows;
    int64_t released = 0;
  };

  // Release-target computation for a warped (irrational) fraction: floor
  // with a documented relative tolerance of 1e-9 — products that are
  // mathematically integral can land a few ulps on either side of the
  // integer, so values within the tolerance snap to the nearest integer
  // before flooring.
  static int64_t FloorTarget(double fraction, int64_t total) {
    double x = fraction * static_cast<double>(total);
    int64_t nearest = std::llround(x);
    if (std::abs(x - static_cast<double>(nearest)) <=
        1e-9 * std::max(1.0, std::abs(x))) {
      return nearest;
    }
    return static_cast<int64_t>(std::floor(x));
  }

  // Appends rows of `t` up to index `target` (clamped to the dataset).
  void ReleaseTo(TableStream& t, int64_t target) {
    target = std::min(target, static_cast<int64_t>(t.rows.size()));
    for (int64_t i = t.released; i < target; ++i) {
      t.buffer->Append(t.rows[i]);
    }
    t.released = std::max(t.released, target);
  }

  // The release schedule: subclasses perturb it. `exact` is the validated,
  // non-decreasing window point (never null) and `fraction` its value.
  virtual Status DoAdvance(double /*fraction*/, const Fraction* exact) {
    for (auto& [name, t] : tables_) {
      int64_t total = static_cast<int64_t>(t->rows.size());
      ReleaseTo(*t, exact->num * total / exact->den);
    }
    return Status::OK();
  }

  std::map<std::string, std::unique_ptr<TableStream>> tables_;
  double current_fraction_ = 0.0;
};

}  // namespace ishare

#endif  // ISHARE_STORAGE_STREAM_SOURCE_H_
