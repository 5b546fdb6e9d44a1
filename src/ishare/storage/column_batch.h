// Column-major delta batches (DESIGN.md §12.2). A ColumnBatch is the
// column-major twin of a DeltaBatch: one typed ColumnVector per schema
// field, plus flat qset-bit and weight arrays, plus a SelectionVector
// marking which rows are still live. Conversion is lossless and
// order-preserving in both directions. No operator consumes this layout
// (the engine's one pump is row-based, §12); it is kept as the starting
// point for a single-layout columnar redesign.

#ifndef ISHARE_STORAGE_COLUMN_BATCH_H_
#define ISHARE_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "ishare/storage/delta.h"
#include "ishare/types/column.h"
#include "ishare/types/schema.h"
#include "ishare/types/selection.h"

namespace ishare {

// Column-major representation of a run of delta tuples. All columns,
// qbits, and weights have the same length (num_rows); sel indexes into
// that range and only selected rows are logically present. The batch
// owns its columns.
struct ColumnBatch {
  std::vector<ColumnVector> cols;
  std::vector<uint64_t> qbits;    // QuerySet::bits() per row
  std::vector<int32_t> weights;   // multiplicity delta per row
  SelectionVector sel;

  int64_t num_rows() const { return static_cast<int64_t>(weights.size()); }
  int64_t num_selected() const { return sel.count(); }

  // Builds a column batch from row deltas, verifying every value's
  // runtime type against `schema`. Returns false (leaving *out
  // unspecified) on any mismatch, on a wrong arity, or on a query set
  // beyond the inline word: deltas are never coerced.
  static bool FromDeltas(const Schema& schema, DeltaSpan deltas,
                         ColumnBatch* out);

  // Emits the selected rows, in selection (= input) order, as row deltas.
  // Exact inverse of FromDeltas restricted to the selection.
  DeltaBatch ToDeltas() const;
};

}  // namespace ishare

#endif  // ISHARE_STORAGE_COLUMN_BATCH_H_
