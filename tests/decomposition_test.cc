// Deeper tests for Sec. 4: split application across multi-level sharing,
// the clustering decomposer's decisions, and end-to-end result preservation
// through decomposition rewrites on the TPC-H workload.

#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/opt/approaches.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

// Three queries over one shared aggregate, as in Fig. 5/6: q0 and q1 are
// near-identical (cheap to share), q2 only overlaps partially.
std::vector<QueryPlan> ThreeQueryDag(const Catalog& catalog) {
  QuerySet all = QuerySet::FromIds({0, 1, 2});
  PlanNodePtr scan = PlanNode::MakeScan(catalog, "orders", all);
  std::map<QueryId, ExprPtr> preds;
  preds[2] = Gt(Col("o_amount"), Lit(90.0));
  PlanNodePtr filt = PlanNode::MakeFilter(scan, std::move(preds), all);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      filt, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, all);
  PlanNodePtr r0 = PlanNode::MakeProject(
      agg, {{Col("total"), "t0"}}, QuerySet::Single(0));
  PlanNodePtr r1 = PlanNode::MakeAggregate(
      agg, {}, {SumAgg(Col("total"), "grand")}, QuerySet::Single(1));
  PlanNodePtr r2 = PlanNode::MakeAggregate(
      agg, {}, {MaxAgg(Col("total"), "mx")}, QuerySet::Single(2));
  return {QueryPlan{0, "q0", r0}, QueryPlan{1, "q1", r1},
          QueryPlan{2, "q2", r2}};
}

TEST(ApplySplitTest, ThreeWayGraphSplitsIntoTwoParts) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(ThreeQueryDag(db.catalog));
  ASSERT_TRUE(g.Validate().ok());
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() == 3) shared = i;
  }
  ASSERT_GE(shared, 0);

  PaceConfig init;
  SubplanGraph ng =
      ApplySplit(g, shared, {QuerySet::FromIds({0, 1}), QuerySet::Single(2)},
                 PaceConfig(g.num_subplans(), 3), &init);
  ASSERT_TRUE(ng.Validate().ok()) << ng.ToString();
  // The {0,1} part still feeds two roots (stays a shared buffer); the {2}
  // part merges into q2's root.
  bool found_pair_part = false;
  for (int i = 0; i < ng.num_subplans(); ++i) {
    if (ng.subplan(i).queries == QuerySet::FromIds({0, 1})) {
      found_pair_part = true;
      EXPECT_EQ(ng.subplan(i).parents.size(), 2u);
    }
    EXPECT_FALSE(ng.subplan(i).queries == QuerySet::FromIds({0, 1, 2}));
  }
  EXPECT_TRUE(found_pair_part);
}

TEST(ApplySplitTest, ThreeWayResultsPreserved) {
  TestDb db(300, 10);
  std::vector<QueryPlan> dag = ThreeQueryDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() == 3) shared = i;
  }
  PaceConfig init;
  SubplanGraph ng =
      ApplySplit(g, shared, {QuerySet::FromIds({0, 1}), QuerySet::Single(2)},
                 PaceConfig(g.num_subplans(), 2), &init);
  for (QueryId q = 0; q < 3; ++q) {
    db.source.Reset();
    AdaptiveExecutor e1(&g, &db.source);
    e1.Run(PaceConfig(g.num_subplans(), 2)).value();
    ResultMap before = MaterializeResult(*e1.query_output(q), q);
    db.source.Reset();
    AdaptiveExecutor e2(&ng, &db.source);
    e2.Run(init).value();
    ResultMap after = MaterializeResult(*e2.query_output(q), q);
    EXPECT_TRUE(ResultsNear(after, before)) << "query " << q;
  }
}

TEST(ApplySplitTest, SingletonSplitIsIdentityShape) {
  TestDb db(200, 8);
  SubplanGraph g = SubplanGraph::Build(ThreeQueryDag(db.catalog));
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() == 3) shared = i;
  }
  PaceConfig init;
  SubplanGraph ng = ApplySplit(g, shared, {g.subplan(shared).queries},
                               PaceConfig(g.num_subplans(), 5), &init);
  ASSERT_TRUE(ng.Validate().ok());
  EXPECT_EQ(ng.num_subplans(), g.num_subplans());
  EXPECT_EQ(init, PaceConfig(g.num_subplans(), 5));
}

TEST(DecomposerTest, DivergentConstraintsTriggerUnsharing) {
  TestDb db(800, 10);
  std::vector<QueryPlan> dag = ThreeQueryDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  CostEstimator est(&g, &db.catalog);

  // q2 (the max query) gets a very tight constraint; q0/q1 stay lazy.
  PaceConfig ones(g.num_subplans(), 1);
  PlanCost batch = est.Estimate(ones);
  std::vector<double> abs = {batch.query_final_work[0],
                             batch.query_final_work[1],
                             0.05 * batch.query_final_work[2]};
  PaceOptimizer po(&est, abs, PaceOptimizerOptions{40});
  PaceSearchResult base = po.FindPaceConfiguration();

  DecomposerOptions dopts;
  dopts.max_pace = 40;
  Decomposer dec(&db.catalog, abs, ExecOptions(), dopts);
  DecomposeResult dr = dec.Optimize(g, base.paces);
  ASSERT_TRUE(dr.graph.Validate().ok());
  EXPECT_LE(dr.cost.total_work, base.cost.total_work + 1e-6);
}

TEST(DecomposerTest, UniformLooseConstraintsKeepSharing) {
  TestDb db(400, 10);
  std::vector<QueryPlan> dag = ThreeQueryDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  CostEstimator est(&g, &db.catalog);
  PaceConfig ones(g.num_subplans(), 1);
  PlanCost batch = est.Estimate(ones);
  std::vector<double> abs = batch.query_final_work;  // rel = 1.0

  DecomposerOptions dopts;
  Decomposer dec(&db.catalog, abs, ExecOptions(), dopts);
  DecomposeResult dr = dec.Optimize(g, ones);
  // Nothing to gain: batch execution everywhere, sharing kept.
  EXPECT_EQ(dr.stats.splits_adopted, 0);
  EXPECT_EQ(dr.graph.num_subplans(), g.num_subplans());
}

TEST(DecomposerTest, BruteForceNeverWorseThanClustering) {
  TestDb db(500, 10);
  std::vector<QueryPlan> dag = ThreeQueryDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  CostEstimator est(&g, &db.catalog);
  PaceConfig ones(g.num_subplans(), 1);
  PlanCost batch = est.Estimate(ones);
  std::vector<double> abs = {batch.query_final_work[0],
                             0.3 * batch.query_final_work[1],
                             0.05 * batch.query_final_work[2]};
  PaceOptimizer po(&est, abs, PaceOptimizerOptions{30});
  PaceSearchResult base = po.FindPaceConfiguration();

  DecomposerOptions cl_opts;
  cl_opts.max_pace = 30;
  Decomposer clustering(&db.catalog, abs, ExecOptions(), cl_opts);
  DecomposeResult cl = clustering.Optimize(g, base.paces);

  DecomposerOptions bf_opts = cl_opts;
  bf_opts.brute_force = true;
  Decomposer brute(&db.catalog, abs, ExecOptions(), bf_opts);
  DecomposeResult bf = brute.Optimize(g, base.paces);

  // Brute force explores a superset of single-subplan splits per step, so
  // its local choices are at least as good; allow small slack because the
  // global greedy adoption order can differ.
  EXPECT_LE(bf.cost.total_work, cl.cost.total_work * 1.05);
}

TEST(DecomposerTest, TpchDecompositionPreservesResults) {
  // End-to-end: optimize the Fig. 14 workload (first 6 queries to keep the
  // test fast) with full iShare and check every query's result against its
  // standalone batch execution.
  static TpchDb* db = new TpchDb(TpchScale{0.003, 3});
  static constexpr int kNums[] = {5, 15, 7, 15, 9, 18};
  std::vector<QueryPlan> queries;
  for (int i = 0; i < 6; ++i) {
    // Odd slots use the predicate variants so shared subplans overlap only
    // partially (the Fig. 14 situation).
    queries.push_back(
        TpchQuery(db->catalog, kNums[i], i, /*variant=*/(i % 2) == 1));
  }
  std::vector<double> rel = {1.0, 0.1, 0.5, 0.1, 1.0, 0.2};
  ApproachOptions opts;
  opts.max_pace = 12;
  OptimizedPlan plan =
      OptimizePlan(Approach::kIShare, queries, db->catalog, rel, opts);
  ASSERT_TRUE(plan.graph.Validate().ok());

  std::vector<ResultMap> ref;
  for (const QueryPlan& q : queries) {
    db->Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &db->source);
    exec.Run(PaceConfig(g.num_subplans(), 1)).value();
    ref.push_back(MaterializeResult(*exec.query_output(q.id), q.id));
  }
  db->Reset();
  AdaptiveExecutor exec(&plan.graph, &db->source);
  exec.Run(plan.paces).value();
  for (const QueryPlan& q : queries) {
    EXPECT_TRUE(ResultsNear(MaterializeResult(*exec.query_output(q.id), q.id),
                            ref[q.id]))
        << q.name;
  }
}

TEST(DecomposerTest, PartialDecompositionProducesValidPlans) {
  TestDb db(600, 10);
  std::vector<QueryPlan> dag = ThreeQueryDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  CostEstimator est(&g, &db.catalog);
  PaceConfig ones(g.num_subplans(), 1);
  PlanCost batch = est.Estimate(ones);
  std::vector<double> abs = {batch.query_final_work[0],
                             0.2 * batch.query_final_work[1],
                             0.05 * batch.query_final_work[2]};
  PaceOptimizer po(&est, abs, PaceOptimizerOptions{30});
  PaceSearchResult base = po.FindPaceConfiguration();

  for (bool partial : {false, true}) {
    DecomposerOptions dopts;
    dopts.max_pace = 30;
    dopts.enable_partial = partial;
    Decomposer dec(&db.catalog, abs, ExecOptions(), dopts);
    DecomposeResult dr = dec.Optimize(g, base.paces);
    EXPECT_TRUE(dr.graph.Validate().ok()) << "partial=" << partial;
    EXPECT_LE(dr.cost.total_work, base.cost.total_work + 1e-6);
  }
}

}  // namespace
}  // namespace ishare
