#include "ishare/storage/column_batch.h"

namespace ishare {

bool ColumnBatch::FromDeltas(const Schema& schema, DeltaSpan deltas,
                             ColumnBatch* out) {
  const int nf = schema.num_fields();
  // Validate before building, so a rejected span leaves no partial work.
  for (const DeltaTuple& t : deltas) {
    if (static_cast<int>(t.row.size()) != nf) return false;
    // qbits is one raw u64 per row: a query set beyond the inline word
    // cannot be lifted.
    if (!t.qset.fits_inline()) return false;
    for (int c = 0; c < nf; ++c) {
      if (t.row[static_cast<size_t>(c)].type() != schema.field(c).type) {
        return false;
      }
    }
  }
  const int64_t n = static_cast<int64_t>(deltas.size());
  out->cols.clear();
  out->cols.reserve(static_cast<size_t>(nf));
  for (int c = 0; c < nf; ++c) {
    out->cols.emplace_back(schema.field(c).type);
    out->cols.back().Reserve(n);
  }
  out->qbits.clear();
  out->qbits.reserve(static_cast<size_t>(n));
  out->weights.clear();
  out->weights.reserve(static_cast<size_t>(n));
  for (const DeltaTuple& t : deltas) {
    for (int c = 0; c < nf; ++c) {
      out->cols[static_cast<size_t>(c)].AppendValue(
          t.row[static_cast<size_t>(c)]);
    }
    out->qbits.push_back(t.qset.bits());
    out->weights.push_back(t.weight);
  }
  out->sel = SelectionVector::All(n);
  return true;
}

DeltaBatch ColumnBatch::ToDeltas() const {
  DeltaBatch batch;
  batch.reserve(static_cast<size_t>(num_selected()));
  const int nf = static_cast<int>(cols.size());
  sel.ForEach([&](int32_t i) {
    DeltaTuple t;
    t.row.reserve(static_cast<size_t>(nf));
    for (int c = 0; c < nf; ++c) {
      t.row.push_back(cols[static_cast<size_t>(c)].GetValue(i));
    }
    t.qset = QuerySet(qbits[static_cast<size_t>(i)]);
    t.weight = weights[static_cast<size_t>(i)];
    batch.push_back(std::move(t));
  });
  return batch;
}

}  // namespace ishare
