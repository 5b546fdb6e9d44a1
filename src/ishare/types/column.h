// Typed column arrays — the storage half of the column-batch layout
// (DESIGN.md §12.2). A ColumnVector holds one column of a DeltaBatch as a
// flat typed array instead of a run of tagged Values. The engine does not
// execute on this layout (its one pump is row-based, §12); the layout is
// kept, with its exact row conversion (storage/column_batch.h), as the
// starting point for a single-layout columnar redesign. The engine is
// null-free (paper Sec. 2.3 operates on complete tuples), so every slot is
// valid.

#ifndef ISHARE_TYPES_COLUMN_H_
#define ISHARE_TYPES_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ishare/types/value.h"

namespace ishare {

// One column of tuples as a flat typed array. Exactly one of the three
// payload vectors is active, selected by type(); the accessors DCHECK.
// Growth is append-only.
class ColumnVector {
 public:
  ColumnVector() : type_(DataType::kInt64) {}
  explicit ColumnVector(DataType t) : type_(t) {}

  DataType type() const { return type_; }

  int64_t size() const {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<int64_t>(i64_.size());
      case DataType::kFloat64:
        return static_cast<int64_t>(f64_.size());
      case DataType::kString:
        return static_cast<int64_t>(str_.size());
    }
    return 0;
  }

  void Reserve(int64_t n) {
    switch (type_) {
      case DataType::kInt64:
        i64_.reserve(static_cast<size_t>(n));
        return;
      case DataType::kFloat64:
        f64_.reserve(static_cast<size_t>(n));
        return;
      case DataType::kString:
        str_.reserve(static_cast<size_t>(n));
        return;
    }
  }

  // Typed payload access. Mutable accessors are for the column's owner
  // (the batch that is building it); consumers take const refs.
  std::vector<int64_t>& i64() {
    DCHECK(type_ == DataType::kInt64);
    return i64_;
  }
  const std::vector<int64_t>& i64() const {
    DCHECK(type_ == DataType::kInt64);
    return i64_;
  }
  std::vector<double>& f64() {
    DCHECK(type_ == DataType::kFloat64);
    return f64_;
  }
  const std::vector<double>& f64() const {
    DCHECK(type_ == DataType::kFloat64);
    return f64_;
  }
  std::vector<std::string>& str() {
    DCHECK(type_ == DataType::kString);
    return str_;
  }
  const std::vector<std::string>& str() const {
    DCHECK(type_ == DataType::kString);
    return str_;
  }

  // Row-at-a-time bridge used by DeltaBatch <-> ColumnBatch conversion.
  void AppendValue(const Value& v);
  Value GetValue(int64_t i) const;
  // Appends other[i] (types must match): the gather primitive.
  void AppendFrom(const ColumnVector& other, int64_t i);

  // Deterministic approximate footprint in the same accounting units as
  // ApproxValueBytes (logical sizes, never capacity).
  int64_t ApproxBytes() const;

 private:
  DataType type_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

}  // namespace ishare

#endif  // ISHARE_TYPES_COLUMN_H_
