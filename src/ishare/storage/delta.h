#ifndef ISHARE_STORAGE_DELTA_H_
#define ISHARE_STORAGE_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ishare/common/query_set.h"
#include "ishare/types/value.h"

namespace ishare {

// A change record flowing through the shared incremental engine (Sec. 2.3):
//  - row:    the tuple payload
//  - qset:   SharedDB bitvector — which queries this tuple is valid for
//  - weight: multiplicity delta; +n inserts n copies, -n deletes n copies.
//            An update is a delete followed by an insert.
struct DeltaTuple {
  Row row;
  QuerySet qset;
  int32_t weight = 1;

  DeltaTuple() = default;
  DeltaTuple(Row r, QuerySet q, int32_t w)
      : row(std::move(r)), qset(q), weight(w) {}

  bool is_insert() const { return weight > 0; }

  std::string ToString() const {
    return (weight > 0 ? "+" : "") + std::to_string(weight) +
           RowToString(row) + qset.ToString();
  }
};

using DeltaBatch = std::vector<DeltaTuple>;

// Deterministic approximate footprint of one delta tuple (see
// ApproxRowBytes): the accounting unit of the flow-control layer's
// memory budget.
inline int64_t ApproxDeltaBytes(const DeltaTuple& t) {
  return static_cast<int64_t>(sizeof(DeltaTuple) - sizeof(Row)) +
         ApproxRowBytes(t.row);
}

// Non-owning, read-only view over a contiguous run of delta tuples. This is
// what the zero-copy consume path of DeltaBuffer hands out: the view stays
// valid until the underlying buffer is appended to or reset, which the
// executors guarantee within one incremental execution.
class DeltaSpan {
 public:
  DeltaSpan() = default;
  DeltaSpan(const DeltaTuple* data, size_t size) : data_(data), size_(size) {}
  // Implicit so operators keep accepting DeltaBatch at call sites.
  DeltaSpan(const DeltaBatch& batch)  // NOLINT
      : data_(batch.data()), size_(batch.size()) {}
  // Views a braced list of tuples; valid only for the full expression the
  // list appears in (like passing a DeltaBatch temporary). That caveat is
  // exactly what -Winit-list-lifetime flags, so silence it here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
  DeltaSpan(std::initializer_list<DeltaTuple> il)  // NOLINT
      : data_(il.begin()), size_(il.size()) {}
#pragma GCC diagnostic pop

  const DeltaTuple* begin() const { return data_; }
  const DeltaTuple* end() const { return data_ + size_; }
  const DeltaTuple& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const DeltaTuple* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_STORAGE_DELTA_H_
