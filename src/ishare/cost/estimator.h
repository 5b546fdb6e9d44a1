// Memoized whole-plan cost estimation — the paper's Algorithm 1. Costs
// are in OpWork units (exec/metrics.h): C_T(P) is total work over the
// window, C_F(P, q) the final-execution work of query q. The memo key is
// each subplan's *private pace configuration* (its own + descendants'
// paces, Sec. 3.2), which is what makes the greedy pace search tractable
// (Fig. 15). Hit/miss rates feed the cost.memo.* observability counters.

#ifndef ISHARE_COST_ESTIMATOR_H_
#define ISHARE_COST_ESTIMATOR_H_

#include <unordered_map>
#include <vector>

#include "ishare/cost/simulator.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/obs/obs.h"

namespace ishare {

// Estimated cost of a whole shared plan under one pace configuration.
struct PlanCost {
  double total_work = 0;                 // C_T(P)
  std::vector<double> query_final_work;  // C_F(P, q), indexed by query id
};

// Memoization-based cost estimator (Algorithm 1). Each subplan keeps a memo
// table keyed by its *private pace configuration* — the paces of the
// subplan and all of its descendants — which fully determines its private
// total work, private final work and output cardinalities under the
// subplan-local pace redefinition of Sec. 3.2.
//
// `use_memo` exists only for the Fig. 15 ablation (iShare w/o memo).
class CostEstimator {
 public:
  CostEstimator(const SubplanGraph* graph, const Catalog* catalog,
                ExecOptions opts = ExecOptions(), bool use_memo = true);

  // Estimates C_T and C_F for all queries under `paces` (children-first
  // bottom-up pass; memoized per subplan).
  PlanCost Estimate(const PaceConfig& paces);

  // The simulated result of one subplan under `paces` (computed through the
  // same memo). Used by the decomposition to obtain per-subplan inputs.
  const SimResult& SubplanResult(int subplan, const PaceConfig& paces);

  int64_t memo_hits() const { return hits_; }
  int64_t memo_misses() const { return misses_; }

  const SubplanGraph& graph() const { return *graph_; }
  const Catalog& catalog() const { return *catalog_; }
  const ExecOptions& options() const { return opts_; }

 private:
  // Ensures memo entries exist for `subplan` and all its descendants under
  // `paces`; returns the entry.
  const SimResult& Compute(int subplan, const PaceConfig& paces);
  uint64_t PrivateKey(int subplan, const PaceConfig& paces) const;

  const SubplanGraph* graph_;
  const Catalog* catalog_;
  ExecOptions opts_;
  bool use_memo_;
  std::vector<std::vector<int>> closure_;  // descendants incl. self, sorted
  std::vector<std::unordered_map<uint64_t, SimResult>> memo_;
  SimResult scratch_;  // storage when memoization is disabled
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  // Observability handles (cost.memo.*, cost.estimate.calls), resolved once
  // at construction. The memo fast path must stay free of atomic traffic
  // (millions of hits per greedy search), so hit/miss counts are batched in
  // the plain int64 tallies above and flushed as deltas per Estimate().
  void FlushObsCounters();
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
  obs::Counter* estimate_counter_ = nullptr;
  int64_t flushed_hits_ = 0;
  int64_t flushed_misses_ = 0;
};

// Estimated cost of running one query standalone in a single batch; the
// denominator of relative final work constraints (Sec. 2.1).
double EstimateStandaloneBatchWork(const QueryPlan& query,
                                   const Catalog& catalog,
                                   ExecOptions opts = ExecOptions());

}  // namespace ishare

#endif  // ISHARE_COST_ESTIMATOR_H_
