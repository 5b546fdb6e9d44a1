// Decomposition ("unsharing") of over-shared subplans — paper Sec. 4.
// Splits a shared subplan into lazier per-query-group clones when the
// sharing benefit (Eq. 4) is negative: greedy bottom-up clustering of the
// sharing queries under local final work constraints S(s, q), plan repair
// (subsume + merge), then a decreasing pace refinement. Each Optimize()
// call emits opt.decompose.* spans and counters.

#ifndef ISHARE_OPT_DECOMPOSITION_H_
#define ISHARE_OPT_DECOMPOSITION_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ishare/opt/pace_optimizer.h"

namespace ishare {

struct DecomposerOptions {
  int max_pace = 100;
  // Exhaustive enumeration of all query-set partitions instead of the
  // greedy clustering (the iShare (Brute-Force) variant of Sec. 5.4/5.5)
  // for subplans shared by at most nine queries; larger ones still
  // cluster.
  bool brute_force = false;
  // Also consider splitting a BFS-expanded subtree of each subplan rather
  // than only the subplan as a whole (partial decomposition, Sec. 4.3).
  bool enable_partial = true;
  // Forwarded to the cost estimators (false = Fig. 15 no-memo ablation).
  bool memoized_estimator = true;
  // Wall-clock budget; 0 means unlimited.
  double deadline_seconds = 0;
};

// Statistics about one Optimize() call, for experiments.
struct DecomposeStats {
  int splits_considered = 0;
  int splits_adopted = 0;
  int partial_splits_adopted = 0;
  int64_t partitions_evaluated = 0;  // clustering/brute-force candidates
};

struct DecomposeResult {
  SubplanGraph graph;
  PaceConfig paces;
  PlanCost cost;
  DecomposeStats stats;
  bool timed_out = false;
};

// Implements Sec. 4: decides, per shared subplan, whether "unsharing" it
// into several lazier subplans reduces total work, using the sharing
// benefit metric (Eq. 4) inside a greedy bottom-up clustering of the
// sharing queries, then regenerates the plan (subsume-repair + merge) and
// re-derives paces with the decreasing greedy pass.
class Decomposer {
 public:
  Decomposer(const Catalog* catalog, std::vector<double> abs_constraints,
             ExecOptions exec = ExecOptions(),
             DecomposerOptions opts = DecomposerOptions());

  // Applies decomposition to the full plan (Sec. 4.4). `graph`/`paces` are
  // the output of the nonuniform pace search; returns the (possibly
  // rewritten) plan with its pace configuration and estimated cost.
  DecomposeResult Optimize(const SubplanGraph& graph, const PaceConfig& paces);

 private:
  struct LocalProblem {
    std::vector<QueryId> queries;
    // Subplan inputs under current P; their profiles are borrowed from
    // the estimator the problem was built with.
    std::vector<SimInput> inputs;
    std::map<QueryId, double> local_constraints;  // S_j
    PlanNodePtr root;                      // subplan tree to split
  };

  // Local split search (Sec. 4.1): returns a partition of the subplan's
  // queries; size 1 means "keep shared".
  std::vector<QuerySet> FindSplit(const LocalProblem& prob,
                                  DecomposeStats* stats);
  std::vector<QuerySet> FindSplitBruteForce(const LocalProblem& prob,
                                            DecomposeStats* stats);

  // Partial total work of a partition under its selected pace; memoized.
  struct PartitionEval {
    int selected_pace = 1;
    double partial_total_work = 0;
  };
  PartitionEval EvaluatePartition(const LocalProblem& prob, QuerySet part,
                                  int start_pace);

  // Builds the local problem for subplan `s` of `graph` under paces `P`.
  LocalProblem BuildLocalProblem(const SubplanGraph& graph,
                                 CostEstimator* est, const PaceConfig& paces,
                                 int s);

  // Pre-computes local final work constraints S(s, q) for every subplan and
  // query of `graph` (Sec. 4.1.1): each query's absolute constraint is
  // scaled by the fraction of the query's standalone batch work performed
  // by the subplan's operators.
  void ComputeLocalConstraints(const SubplanGraph& graph, CostEstimator* est);

  const Catalog* catalog_;
  std::vector<double> constraints_;
  ExecOptions exec_;
  DecomposerOptions opts_;

  // S(s, q), rebuilt for each adopted graph.
  std::vector<std::map<QueryId, double>> local_constraints_;
  // Memo for EvaluatePartition, cleared per local problem: (query set,
  // pace) -> (partial total work, final work).
  std::map<std::pair<QuerySet, int>, std::pair<double, double>>
      partition_memo_;
};

// Applies a split of subplan `s` into `split` (a partition of its query
// set) to `graph`: clones every subplan restricted to the induced query
// partitions, repairs the subsume requirement by splitting ancestors, and
// merges chains left with a single parent (Sec. 4.2). `old_paces` seeds
// `init_paces` (split parts inherit the original subplan's pace; merged
// subplans take the larger pace). Exposed for testing.
SubplanGraph ApplySplit(const SubplanGraph& graph, int s,
                        const std::vector<QuerySet>& split,
                        const PaceConfig& old_paces, PaceConfig* init_paces);

}  // namespace ishare

#endif  // ISHARE_OPT_DECOMPOSITION_H_
