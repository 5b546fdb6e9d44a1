// Selection vectors — the liveness half of the column-batch layout
// (DESIGN.md §12.2). Filtering a column batch never moves column data: it
// shrinks the selection instead, so later passes iterate only surviving
// slots and conversion back to rows emits them in input order. The
// all-selected representation materializes no index array at all, which
// keeps the no-filter case allocation-free and lets loops run over a
// contiguous [0, n) range.

#ifndef ISHARE_TYPES_SELECTION_H_
#define ISHARE_TYPES_SELECTION_H_

#include <cstdint>
#include <vector>

#include "ishare/common/check.h"

namespace ishare {

// An ordered set of live row indices into a column batch. Invariants:
// indices are strictly ascending and in [0, n) of the owning batch, so
// selection order IS input order and re-selection can only shrink the set.
class SelectionVector {
 public:
  SelectionVector() = default;

  // All n rows selected (fast path: no index array is materialized).
  static SelectionVector All(int64_t n) {
    SelectionVector s;
    s.all_ = true;
    s.n_ = n;
    return s;
  }

  // Empty selection.
  static SelectionVector None() { return SelectionVector(); }

  // Explicit index list; must be strictly ascending (DCHECKed).
  static SelectionVector FromIndices(std::vector<int32_t> idx) {
    SelectionVector s;
#ifndef NDEBUG
    for (size_t k = 1; k < idx.size(); ++k) DCHECK(idx[k - 1] < idx[k]);
#endif
    s.idx_ = std::move(idx);
    return s;
  }

  bool is_all() const { return all_; }
  bool empty() const { return count() == 0; }

  // Number of selected rows.
  int64_t count() const {
    return all_ ? n_ : static_cast<int64_t>(idx_.size());
  }

  // Row index of the k-th selected row.
  int32_t operator[](int64_t k) const {
    DCHECK(k >= 0 && k < count());
    return all_ ? static_cast<int32_t>(k) : idx_[static_cast<size_t>(k)];
  }

  // Appends a selected row during sparse construction; callers must
  // append in strictly ascending order (the DCHECK enforces it).
  void Append(int32_t i) {
    DCHECK(!all_);
    DCHECK(idx_.empty() || idx_.back() < i);
    idx_.push_back(i);
  }

  // Calls f(row_index) for every selected row, ascending. The two loop
  // shapes keep the all-selected path free of the indirection load.
  template <typename F>
  void ForEach(F&& f) const {
    if (all_) {
      for (int64_t i = 0; i < n_; ++i) f(static_cast<int32_t>(i));
    } else {
      for (int32_t i : idx_) f(i);
    }
  }

  // The index array of a sparse selection (empty when is_all()).
  const std::vector<int32_t>& indices() const { return idx_; }

 private:
  bool all_ = false;
  int64_t n_ = 0;               // row count when all_
  std::vector<int32_t> idx_;    // sparse indices otherwise
};

}  // namespace ishare

#endif  // ISHARE_TYPES_SELECTION_H_
