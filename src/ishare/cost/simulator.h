// Analytic per-subplan simulation — the inner loop of the cost estimator
// (paper Sec. 3.2, Fig. 4). Simulates k incremental executions of one
// subplan under the memoization-friendly pace redefinition (each execution
// processes 1/k of the subplan's own total input), producing private
// total/final work in OpWork units plus the output cardinalities that
// become the parents' inputs. CostEstimator (estimator.h) memoizes these
// results keyed by private pace configuration (Algorithm 1).
//
// A CompiledSubplan computes everything that does not depend on pace once
// (column profiles, selectivities, key NDVs, group counts, the operator
// layout and each edge's query ids); Run() then costs only the step
// arithmetic over dense per-query arrays.

#ifndef ISHARE_COST_SIMULATOR_H_
#define ISHARE_COST_SIMULATOR_H_

#include <span>
#include <vector>

#include "ishare/cost/column_profile.h"
#include "ishare/exec/metrics.h"
#include "ishare/plan/subplan_graph.h"

namespace ishare {

// Estimated data flowing into a subplan leaf over the whole trigger window.
struct SimInput {
  double card = 0;     // total delta tuples (inserts + deletes)
  double deletes = 0;  // of which deletions
  // The queries the input carries, ascending, and their tuple counts.
  std::vector<QueryId> queries;
  std::vector<double> per_query;  // parallel to `queries`
  // Column statistics of the input, read only when a model is compiled.
  // Borrowed: it must outlive the compile. Null reads as no statistics.
  const ColumnProfile* profile = nullptr;
};

// Output of simulating one subplan under one pace (Sec. 3.2, Fig. 4).
struct SimResult {
  double private_total_work = 0;  // cost of all simulated executions
  double private_final_work = 0;  // cost of the last simulated execution
  // Output over the whole window, which becomes the parents' input.
  double out_card = 0;
  double out_deletes = 0;
  // Per-query output counts, parallel to CompiledSubplan::out_queries().
  std::vector<double> out_per_query;
  // Cumulative estimated work per operator, preorder over the subplan tree.
  std::vector<double> per_op_work;
};

// One input's whole-window flow as CompiledSubplan::Run reads it, borrowed
// for the call. `per_query` is parallel to the query ids the input leaf
// was compiled with.
struct SimFlow {
  double card = 0;
  double deletes = 0;
  std::span<const double> per_query;
};

inline SimFlow FlowOf(const SimInput& in) {
  return {in.card, in.deletes, in.per_query};
}
inline SimFlow FlowOf(const SimResult& r) {
  return {r.out_card, r.out_deletes, r.out_per_query};
}

// The analytic operator models of one subplan tree, compiled once. The
// models mirror the runtime operators: symmetric join state growth,
// Cardenas group-touch estimates, aggregate delete+insert churn and
// min/max delete-rescan penalties. Which queries each edge carries is
// fixed by the plan and the inputs' query ids, never by pace or by
// values, so it is fixed here too and every run reuses it. A compiled
// model holds no run state: any sequence of Run() calls returns what a
// fresh compile would.
class CompiledSubplan {
 public:
  // kScan leaves draw their totals from the catalog; kSubplanInput leaves
  // take the query ids and column profile of `inputs`, in preorder (their
  // counts are not read).
  CompiledSubplan(const PlanNodePtr& root, const Catalog& catalog,
                  std::span<const SimInput> inputs);

  // Simulates `pace` incremental executions, each processing 1/pace of
  // the subplan's total input (the paper's memoization-friendly
  // redefinition of pace). `inputs` feed the kSubplanInput leaves in
  // preorder.
  SimResult Run(int pace, std::span<const SimFlow> inputs,
                const ExecOptions& opts) const;

  size_t num_inputs() const { return input_sizes_.size(); }
  // The root's output queries, ascending.
  const std::vector<QueryId>& out_queries() const { return out_queries_; }
  const ColumnProfile& out_profile() const { return out_profile_; }

 private:
  // One operator model. Per-query arrays are laid out in one buffer per
  // run; `out` and `state` are offsets into it.
  struct Op {
    PlanKind kind = PlanKind::kScan;
    std::vector<int> children;  // preorder indices
    int out = 0;                // this op's per-query output counts
    int num_out = 0;
    // Per output query: where its count sits in the input leaf's or the
    // (left) child's query ids; for joins, in the right child's (-1 when
    // the right side does not carry the query).
    std::vector<int> pick;
    std::vector<int> right_pick;
    std::vector<double> sel;  // kFilter: selectivity per output query
    double rows = 0;          // kScan: the table's rows
    int input = -1;           // kSubplanInput: index into the inputs
    bool inner = true;        // kJoin
    bool semi = false;
    double key_ndv = 1.0;
    double right_key_ndv = 1.0;
    double groups = 1.0;      // kAggregate
    bool has_minmax = false;
    int state = 0;  // kJoin: left then right counts; kAggregate: counts
  };
  // One op's scalar run state.
  struct OpState {
    double card = 0;
    double deletes = 0;
    double cost = 0;     // cumulative charged work
    double subtree = 0;  // cost summed over the op's subtree
    double cum_a = 0;    // kJoin: left cumulative; kAggregate: input
    double cum_b = 0;    // kJoin: right cumulative
  };
  class Compiler;

  void Step(const Op& op, int pace, std::span<const SimFlow> inputs,
            std::vector<OpState>* st, double* q, OpState* self) const;

  std::vector<Op> ops_;  // preorder; ops_[0] is the root
  int num_slots_ = 0;    // per-query doubles one run needs
  std::vector<size_t> input_sizes_;  // query ids per input leaf
  std::vector<QueryId> out_queries_;
  ColumnProfile out_profile_;
};

// Compiles the subplan rooted at `root` for `inputs` and runs it once at
// `pace`.
SimResult SimulateSubplan(const PlanNodePtr& root, const Catalog& catalog,
                          int pace, const std::vector<SimInput>& inputs,
                          const ExecOptions& opts);

// Fraction of `base_card` tuples valid for at least one of the per-query
// counts (in ascending query-id order), under independence of per-query
// memberships.
double UnionFraction(std::span<const double> per_query, double base_card);

// Restricts a SimInput to the tuples relevant for `keep` (per-query counts
// filtered; card/deletes scaled by the union fraction of the kept queries).
SimInput RestrictSimInput(const SimInput& in, QuerySet keep);

}  // namespace ishare

#endif  // ISHARE_COST_SIMULATOR_H_
