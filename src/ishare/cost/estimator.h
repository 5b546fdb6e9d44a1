// Memoized whole-plan cost estimation — the paper's Algorithm 1. Costs
// are in OpWork units (exec/metrics.h): C_T(P) is total work over the
// window, C_F(P, q) the final-execution work of query q. The memo key is
// each subplan's *private pace configuration* (its own + descendants'
// paces, Sec. 3.2), which is what makes the greedy pace search tractable
// (Fig. 15). A search candidate that moves one subplan's pace re-estimates
// only that subplan and its ancestors. Hit/miss rates feed the cost.memo.*
// observability counters.

#ifndef ISHARE_COST_ESTIMATOR_H_
#define ISHARE_COST_ESTIMATOR_H_

#include <memory>
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
// subplan-local pace redefinition of Sec. 3.2. A hit compares the whole
// private configuration, not only its hash.
//
// Each subplan's operator models are compiled once, at its first
// simulation (CompiledSubplan), never in the constructor.
//
// `use_memo` exists only for the Fig. 15 ablation (iShare w/o memo): the
// memo is then neither read nor filled, and every estimate re-simulates
// every subplan.
class CostEstimator {
 public:
  CostEstimator(const SubplanGraph* graph, const Catalog* catalog,
                ExecOptions opts = ExecOptions(), bool use_memo = true);

  // Estimates C_T and C_F for all queries under `paces` (children-first
  // bottom-up pass; memoized per subplan).
  PlanCost Estimate(const PaceConfig& paces);

  // Estimates `base` with subplan `subplan`'s pace set to `pace`: one
  // candidate of a greedy pace search. Only `subplan` and its ancestors
  // are looked up; every other subplan reuses `base`'s result. Returns
  // exactly what Estimate() of that configuration returns; when `base`
  // was estimated before (by Estimate() or as a candidate) it also adds
  // exactly Estimate()'s memo misses. Without the memo it is Estimate().
  PlanCost EstimateWithPace(const PaceConfig& base, int subplan, int pace);

  // The simulated result of one subplan under `paces` (computed through the
  // same memo). Used by the decomposition to obtain per-subplan inputs.
  // Without the memo the reference is valid until the next call.
  const SimResult& SubplanResult(int subplan, const PaceConfig& paces);

  // One subplan's compiled operator models; compiles it (and its
  // descendants) at first use. SimResult::out_per_query is parallel to
  // its out_queries().
  const CompiledSubplan& Model(int subplan);

  int64_t memo_hits() const { return hits_; }
  int64_t memo_misses() const { return misses_; }

  const SubplanGraph& graph() const { return *graph_; }
  const Catalog& catalog() const { return *catalog_; }
  const ExecOptions& options() const { return opts_; }

 private:
  struct MemoEntry {
    std::vector<int> closure_paces;  // paces of closure_[subplan], in order
    SimResult result;
  };

  // Subplan `i`'s result under `paces`, given its children's results in
  // `results`: a memo hit, or one simulation.
  const SimResult* Resolve(int i, const PaceConfig& paces,
                           const std::vector<const SimResult*>& results);
  const SimResult* Find(int i, const PaceConfig& paces, uint64_t key) const;
  uint64_t PrivateKey(int subplan, const PaceConfig& paces) const;
  // Points base_results_ at `base`, re-resolving only the subplans whose
  // private configuration differs from base_paces_.
  void Rebase(const PaceConfig& base);
  // C_T and C_F, summed in subplan-index order.
  PlanCost Sum(const std::vector<const SimResult*>& results) const;

  const SubplanGraph* graph_;
  const Catalog* catalog_;
  ExecOptions opts_;
  bool use_memo_;
  // Plan facts, cached at construction.
  std::vector<int> topo_;                    // children first
  std::vector<std::vector<int>> closure_;    // descendants incl. self, sorted
  std::vector<std::vector<int>> ancestors_;  // incl. self, children first
  std::vector<std::vector<QueryId>> queries_;
  // Compiled lazily: each subplan's models and input-leaf children in
  // preorder (its SimFlow order).
  std::vector<std::unique_ptr<CompiledSubplan>> models_;
  std::vector<std::vector<int>> leaves_;
  std::vector<std::unordered_multimap<uint64_t, MemoEntry>> memo_;
  // Without the memo: each subplan's result within one call.
  std::vector<SimResult> store_;
  // The configuration EstimateWithPace() moves from and its results
  // (memo entries; only kept with the memo).
  PaceConfig base_paces_;
  std::vector<const SimResult*> base_results_;
  // Scratch for one call.
  std::vector<const SimResult*> results_;
  PaceConfig cand_;
  std::vector<SimFlow> flows_;
  std::vector<char> dirty_;
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
