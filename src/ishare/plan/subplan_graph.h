#ifndef ISHARE_PLAN_SUBPLAN_GRAPH_H_
#define ISHARE_PLAN_SUBPLAN_GRAPH_H_

#include <functional>
#include <string>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/plan/plan.h"

namespace ishare {

// One subplan: a tree of operators whose leaves are base-relation scans or
// kSubplanInput placeholders referring to child subplans (Sec. 2.2). The
// subplan materializes its output into a DeltaBuffer that parent subplans
// (or the user, for query roots) consume at their own pace.
struct Subplan {
  PlanNodePtr root;

  // Queries sharing this subplan (== root->queries).
  QuerySet queries;

  // Child subplan indices, deduplicated, in first-reference order.
  std::vector<int> children;
  // Parent subplan indices (derived; kept consistent by RecomputeEdges).
  std::vector<int> parents;

  // Queries for which this subplan's output is the final query result.
  QuerySet root_of;

  bool IsSharedBuffer() const { return parents.size() > 1; }
};

// The shared plan broken into subplans at operators with more than one
// parent (Sec. 2.2). Subplans are stored children-before-parents.
class SubplanGraph {
 public:
  SubplanGraph() = default;

  // Builds the graph from per-query roots into a merged DAG (shared nodes
  // are identified by pointer identity). Cut points are nodes with more
  // than one parent plus every query root; `extra_cut` can force further
  // cuts (e.g. at blocking operators for the NoShare-Nonuniform baseline of
  // Sec. 5.2). The DAG nodes are deep-copied into per-subplan trees, so
  // subsequent rewrites of one graph never affect the input plans or other
  // graphs.
  static SubplanGraph Build(
      const std::vector<QueryPlan>& queries,
      const std::function<bool(const PlanNode&)>& extra_cut = nullptr);

  int num_subplans() const { return static_cast<int>(subplans_.size()); }
  const Subplan& subplan(int i) const {
    CHECK(i >= 0 && i < num_subplans());
    return subplans_[i];
  }
  Subplan* mutable_subplan(int i) {
    CHECK(i >= 0 && i < num_subplans());
    return &subplans_[i];
  }
  const std::vector<Subplan>& subplans() const { return subplans_; }

  int num_queries() const { return num_queries_; }
  void set_num_queries(int n) { num_queries_ = n; }

  // The queries actually present in this graph. Ids need not be dense:
  // online churn (DESIGN.md §13) retires ids, so [0, num_queries) may have
  // holes — a hole belongs to no subplan and has query_root() == -1.
  const QuerySet& live_queries() const { return live_queries_; }

  // Index of the subplan producing query q's final result, or -1.
  int query_root(QueryId q) const {
    CHECK(q >= 0 && q < static_cast<int>(query_roots_.size()));
    return query_roots_[q];
  }

  // Subplan indices belonging to query q (its plan = all subplans whose
  // query set contains q).
  std::vector<int> SubplansOfQuery(QueryId q) const;

  // Appends a subplan and returns its index. Caller must keep edges
  // consistent (or call RecomputeEdges afterwards).
  int AddSubplan(Subplan sp) {
    subplans_.push_back(std::move(sp));
    return num_subplans() - 1;
  }

  void SetQueryRoot(QueryId q, int subplan_index);

  // Recomputes children (from kSubplanInput leaves), parents, and each
  // subplan's query set (from its root node).
  void RecomputeEdges();

  // Indices ordered so every subplan appears after all of its children.
  std::vector<int> TopoChildrenFirst() const;
  // Indices ordered so every subplan appears before all of its children.
  std::vector<int> TopoParentsFirst() const;

  // Checks the execution-engine requirement that the query set of a subplan
  // subsumes the query set of each of its parents, that edges are acyclic
  // and consistent, and that every query has a root.
  Status Validate() const;

  std::string ToString() const;

 private:
  std::vector<Subplan> subplans_;
  std::vector<int> query_roots_;
  QuerySet live_queries_;
  int num_queries_ = 0;
};

// Paces of all subplans, indexed like SubplanGraph::subplans(). A pace k
// means the subplan starts one incremental execution whenever the system
// has received 1/k of the trigger window's data (Sec. 2.2).
using PaceConfig = std::vector<int>;

// Checks that `paces` is a usable configuration for `graph`: one pace per
// subplan, every pace >= 1.
Status ValidatePaceConfig(const SubplanGraph& graph, const PaceConfig& paces);

// Collects all operator nodes of a subplan tree in preorder.
void CollectNodes(const PlanNodePtr& root, std::vector<PlanNodePtr>* out);

// Counts operators in a subplan tree (kSubplanInput leaves excluded).
int CountOperators(const PlanNodePtr& root);

}  // namespace ishare

#endif  // ISHARE_PLAN_SUBPLAN_GRAPH_H_
