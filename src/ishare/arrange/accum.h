// The aggregate accumulator cell and its update rule, shared by an owned
// arrangement's apply and a shared one's chain replay (DESIGN.md §15.3).
// Bit-exactness of shared-vs-owned execution rests on both paths applying
// the *same* code to the *same* update sequence: double sums are
// order-sensitive, and the MIN/MAX delete-rescan path meters work — so the
// logic lives here exactly once.

#ifndef ISHARE_ARRANGE_ACCUM_H_
#define ISHARE_ARRANGE_ACCUM_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "ishare/common/check.h"
#include "ishare/plan/plan.h"
#include "ishare/types/value.h"

namespace ishare::arrange {

// One aggregate accumulator for one (group, AggSpec) pair. An owned
// arrangement keeps one per (group, query); a shared one keeps exactly one
// per group because eligible build inputs are query-set independent
// (every sharing query sees the same update stream, so all per-query
// copies would always be equal).
struct AccumCell {
  double dsum = 0;
  int64_t isum = 0;
  int64_t count = 0;  // weighted count of non-null contributions
  // MIN / MAX / COUNT_DISTINCT only.
  std::unordered_map<Value, int64_t, ValueHasher> values;
  std::optional<Value> extremum;
};

// Applies one weighted contribution to an accumulator. `state_work`
// receives the state-maintenance cost in OpWork::state units (value-map
// touches and extremum rescans); pass nullptr to replay without metering
// (compaction folds, already-metered chain prefixes).
inline void UpdateAccumCell(AggKind kind, AccumCell* a, const Value& v,
                            int32_t w, double* state_work) {
  switch (kind) {
    case AggKind::kCount:
      a->count += w;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
      a->dsum += v.AsDouble() * w;
      if (v.is_int()) a->isum += v.AsInt() * w;
      a->count += w;
      return;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kCountDistinct: {
      int64_t& cnt = a->values[v];
      cnt += w;
      CHECK_GE(cnt, 0) << "aggregate delete without matching insert";
      if (state_work != nullptr) *state_work += 1;
      if (cnt == 0) {
        a->values.erase(v);
        if (kind != AggKind::kCountDistinct && a->extremum.has_value() &&
            *a->extremum == v) {
          // The extremum was deleted: rescan all remaining values. This is
          // the expensive path that makes MAX-over-SUM plans (TPC-H Q15)
          // non-incrementable under eager execution.
          a->extremum.reset();
          for (const auto& [val, c] : a->values) {
            if (state_work != nullptr) *state_work += 1;
            if (!a->extremum.has_value() ||
                (kind == AggKind::kMax ? a->extremum->Compare(val) < 0
                                       : a->extremum->Compare(val) > 0)) {
              a->extremum = val;
            }
          }
        }
      } else if (w > 0 && kind != AggKind::kCountDistinct) {
        if (!a->extremum.has_value() ||
            (kind == AggKind::kMax ? a->extremum->Compare(v) < 0
                                   : a->extremum->Compare(v) > 0)) {
          a->extremum = v;
        }
      }
      return;
    }
  }
}

// Deterministic byte accounting for one cell, the same for owned and
// shared arrangements so `state:` vs `arr:` budget components are
// comparable.
inline int64_t ApproxAccumBytes(const AccumCell& a) {
  int64_t bytes = static_cast<int64_t>(sizeof(AccumCell));
  for (const auto& [v, cnt] : a.values) {
    bytes += ApproxValueBytes(v) + static_cast<int64_t>(sizeof(cnt));
  }
  if (a.extremum.has_value()) bytes += ApproxValueBytes(*a.extremum);
  return bytes;
}

}  // namespace ishare::arrange

#endif  // ISHARE_ARRANGE_ACCUM_H_
