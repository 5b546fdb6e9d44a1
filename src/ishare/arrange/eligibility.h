// Arrangement eligibility (DESIGN.md §15.2): which operator inputs can be
// backed by shared, query-set-independent state. A build input qualifies
// iff it is fed directly by a scan whose query set covers the operator's —
// then every sharing query sees the identical delta stream (scans pass
// every tuple to every covered query), so one multiplicity / accumulator
// per key stands for all per-query copies and the arrangement signature
// can omit the query set entirely.

#ifndef ISHARE_ARRANGE_ELIGIBILITY_H_
#define ISHARE_ARRANGE_ELIGIBILITY_H_

#include <string>

#include "ishare/arrange/arrangement.h"
#include "ishare/catalog/catalog.h"
#include "ishare/plan/plan.h"

namespace ishare::arrange {

// True iff `side` (0 = left, 1 = right) of an inner join node can read a
// shared arrangement. Semi/anti joins never qualify: their right-delta
// handling re-emits stored left tuples, which couples the sides' states.
bool EligibleJoinBuild(const PlanNode* node, int side);

// True iff an aggregate node's group map can read a shared arrangement.
bool EligibleAgg(const PlanNode* node);

// Specs for eligible inputs; CHECK-fail if called on an ineligible node.
// Signatures are built from query-set-independent build parameters only
// (table, key columns, agg specs) so churn epochs and different query
// mixes land on the same arrangement.
ArrangementSpec JoinBuildSpec(const PlanNode* node, int side);
ArrangementSpec AggGroupsSpec(const PlanNode* node);

// Cost-model term for the decomposer's sharing benefit (DESIGN.md §15.6):
// build work over `root` that a shared arrangement absorbs once globally —
// the base-table tuples applied to each eligible site. Every clone of a
// split pays this in the private cost model, but with arrangements enabled
// only the first reader applies it (the rest dedup-skip), so the term is
// subtracted from every partition's partial total work: sharing benefit
// shrinks by exactly the build work unsharing no longer duplicates.
double ArrangedSharedWork(const PlanNode* root, const Catalog& catalog);

}  // namespace ishare::arrange

#endif  // ISHARE_ARRANGE_ELIGIBILITY_H_
