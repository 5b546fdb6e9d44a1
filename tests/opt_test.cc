#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/opt/approaches.h"
#include "ishare/plan/builder.h"
#include "test_util.h"

namespace ishare {
namespace {

// --- Incrementability math (Eq. 1-2) on synthetic costs ---

PlanCost MakeCost(double total, std::vector<double> finals) {
  PlanCost c;
  c.total_work = total;
  c.query_final_work = std::move(finals);
  return c;
}

TEST(IncrementabilityTest, BenefitCountsOnlyMissedWork) {
  std::vector<double> L = {50, 50};
  PlanCost lazy = MakeCost(100, {100, 40});   // q1 already meets L
  PlanCost eager = MakeCost(150, {70, 20});
  // q0: 100 - max(50,70) = 30; q1: max(0, 40 - max(50,20)) = 0.
  EXPECT_DOUBLE_EQ(PaceBenefit(eager, lazy, L), 30);
}

TEST(IncrementabilityTest, BenefitBoundedByConstraint) {
  std::vector<double> L = {50};
  PlanCost lazy = MakeCost(100, {100});
  PlanCost eager = MakeCost(150, {10});  // overshoots the constraint
  // Reduction below L yields no extra benefit: 100 - max(50,10) = 50.
  EXPECT_DOUBLE_EQ(PaceBenefit(eager, lazy, L), 50);
}

TEST(IncrementabilityTest, RatioAndInfinity) {
  std::vector<double> L = {0};
  PlanCost lazy = MakeCost(100, {80});
  PlanCost eager = MakeCost(140, {40});
  EXPECT_DOUBLE_EQ(Incrementability(eager, lazy, L), 1.0);
  PlanCost free_eager = MakeCost(100, {40});
  EXPECT_TRUE(std::isinf(Incrementability(free_eager, lazy, L)));
  PlanCost useless = MakeCost(100, {80});
  EXPECT_DOUBLE_EQ(Incrementability(useless, lazy, L), 0.0);
}

// --- Pace search on a real shared plan ---

std::vector<QueryPlan> SharedDag(const Catalog& catalog) {
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(catalog, "orders", both);
  std::map<QueryId, ExprPtr> preds;
  preds[1] = Gt(Col("o_amount"), Lit(50.0));
  PlanNodePtr filt = PlanNode::MakeFilter(scan, std::move(preds), both);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      filt, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, both);
  PlanNodePtr root0 = PlanNode::MakeProject(
      agg, {{Col("o_custkey"), "k"}, {Col("total"), "total"}},
      QuerySet::Single(0));
  PlanNodePtr root1 = PlanNode::MakeAggregate(
      agg, {}, {MaxAgg(Col("total"), "m")}, QuerySet::Single(1));
  return {QueryPlan{0, "q0", root0}, QueryPlan{1, "q1", root1}};
}

class PaceSearchTest : public ::testing::Test {
 protected:
  PaceSearchTest() : db_(500, 10) {
    graph_ = SubplanGraph::Build(SharedDag(db_.catalog));
    est_ = std::make_unique<CostEstimator>(&graph_, &db_.catalog);
  }
  std::vector<double> Constraints(double rel) {
    PaceConfig ones(graph_.num_subplans(), 1);
    PlanCost batch = est_->Estimate(ones);
    return {rel * batch.query_final_work[0], rel * batch.query_final_work[1]};
  }
  TestDb db_;
  SubplanGraph graph_;
  std::unique_ptr<CostEstimator> est_;
};

TEST_F(PaceSearchTest, LooseConstraintStaysLazy) {
  PaceOptimizer po(est_.get(), Constraints(1.0));
  PaceSearchResult r = po.FindPaceConfiguration();
  for (int p : r.paces) EXPECT_EQ(p, 1);
}

TEST_F(PaceSearchTest, TightConstraintRaisesPaces) {
  std::vector<double> L = Constraints(0.2);
  PaceOptimizer po(est_.get(), L);
  PaceSearchResult r = po.FindPaceConfiguration();
  bool any_raised = false;
  for (int p : r.paces) any_raised |= (p > 1);
  EXPECT_TRUE(any_raised);
  for (int q = 0; q < 2; ++q) {
    EXPECT_LE(r.cost.query_final_work[q], L[q] * 1.0001) << "q" << q;
  }
}

TEST_F(PaceSearchTest, ParentNeverOutpacesChild) {
  PaceOptimizer po(est_.get(), Constraints(0.1));
  PaceSearchResult r = po.FindPaceConfiguration();
  for (int i = 0; i < graph_.num_subplans(); ++i) {
    for (int c : graph_.subplan(i).children) {
      EXPECT_LE(r.paces[i], r.paces[c]);
    }
  }
}

TEST_F(PaceSearchTest, TighterConstraintsCostMoreTotalWork) {
  PaceOptimizer loose(est_.get(), Constraints(0.5));
  PaceOptimizer tight(est_.get(), Constraints(0.1));
  double w_loose = loose.FindPaceConfiguration().cost.total_work;
  double w_tight = tight.FindPaceConfiguration().cost.total_work;
  EXPECT_GE(w_tight, w_loose);
}

TEST_F(PaceSearchTest, RefineDecreasingLowersWorkKeepingConstraints) {
  std::vector<double> L = Constraints(0.5);
  PaceOptimizer po(est_.get(), L);
  PaceConfig eager(graph_.num_subplans(), 16);
  PaceSearchResult r = po.RefineDecreasing(eager);
  PlanCost eager_cost = est_->Estimate(eager);
  EXPECT_LT(r.cost.total_work, eager_cost.total_work);
  for (int q = 0; q < 2; ++q) {
    EXPECT_LE(r.cost.query_final_work[q],
              std::max(L[q], eager_cost.query_final_work[q]) * 1.0001);
  }
}

// --- ApplySplit (Sec. 4.2) ---

TEST(ApplySplitTest, SplitsSharedSubplanAndRepairsParents) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) shared = i;
  }
  ASSERT_GE(shared, 0);

  PaceConfig old_paces(g.num_subplans(), 4);
  PaceConfig init;
  SubplanGraph ng = ApplySplit(
      g, shared, {QuerySet::Single(0), QuerySet::Single(1)}, old_paces, &init);
  ASSERT_TRUE(ng.Validate().ok()) << ng.ToString();
  // After the split the parents are single-query and get merged into their
  // part (Fig. 8): expect two fully separate single-query subplans.
  EXPECT_EQ(ng.num_subplans(), 2);
  for (int i = 0; i < ng.num_subplans(); ++i) {
    EXPECT_EQ(ng.subplan(i).queries.size(), 1);
    EXPECT_TRUE(ng.subplan(i).children.empty());
  }
  EXPECT_EQ(init.size(), ng.num_subplans() * 1u);
  for (int p : init) EXPECT_EQ(p, 4);  // inherited from the old subplans
}

TEST(ApplySplitTest, SplitPreservesQueryResults) {
  TestDb db(250, 8);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) shared = i;
  }
  PaceConfig init;
  SubplanGraph ng = ApplySplit(
      g, shared, {QuerySet::Single(0), QuerySet::Single(1)},
      PaceConfig(g.num_subplans(), 2), &init);

  auto run = [&](const SubplanGraph& graph, const PaceConfig& paces,
                 QueryId q) {
    db.source.Reset();
    AdaptiveExecutor exec(&graph, &db.source);
    exec.Run(paces).value();
    return MaterializeResult(*exec.query_output(q), q);
  };
  for (QueryId q = 0; q < 2; ++q) {
    auto before = run(g, PaceConfig(g.num_subplans(), 2), q);
    auto after = run(ng, init, q);
    EXPECT_EQ(before, after) << "query " << q;
  }
}

// --- End-to-end approaches ---

std::vector<QueryPlan> TwoFilteredAggQueries(const Catalog& catalog) {
  auto mk = [&](QueryId qid, double threshold) {
    PlanBuilder b(&catalog, qid);
    return QueryPlan{
        qid, "q" + std::to_string(qid),
        b.Aggregate(
            b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(threshold))),
            {"o_custkey"}, {SumAgg(Col("o_amount"), "total")})};
  };
  return {mk(0, 5.0), mk(1, 95.0)};
}

TEST(ApproachesTest, AllApproachesProduceValidExecutablePlans) {
  TestDb db(300, 10);
  std::vector<QueryPlan> queries = TwoFilteredAggQueries(db.catalog);
  std::vector<double> rel = {1.0, 0.2};

  std::unordered_map<Row, int64_t, RowHasher> ref[2];
  for (const QueryPlan& q : queries) {
    db.source.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &db.source);
    exec.Run({1}).value();
    ref[q.id] = MaterializeResult(*exec.query_output(q.id), q.id);
  }

  for (Approach a :
       {Approach::kNoShareUniform, Approach::kNoShareNonuniform,
        Approach::kShareUniform, Approach::kIShareNoUnshare, Approach::kIShare,
        Approach::kIShareBruteForce}) {
    ApproachOptions opts;
    opts.max_pace = 20;
    OptimizedPlan plan = OptimizePlan(a, queries, db.catalog, rel, opts);
    ASSERT_TRUE(plan.graph.Validate().ok()) << ApproachName(a);
    db.source.Reset();
    AdaptiveExecutor exec(&plan.graph, &db.source);
    exec.Run(plan.paces).value();
    for (QueryId q = 0; q < 2; ++q) {
      EXPECT_EQ(MaterializeResult(*exec.query_output(q), q), ref[q])
          << ApproachName(a) << " query " << q;
    }
  }
}

TEST(ApproachesTest, IShareNeverWorseThanShareUniformEstimate) {
  TestDb db(400, 10);
  std::vector<QueryPlan> queries = TwoFilteredAggQueries(db.catalog);
  std::vector<double> rel = {1.0, 0.1};
  ApproachOptions opts;
  opts.max_pace = 30;
  OptimizedPlan su =
      OptimizePlan(Approach::kShareUniform, queries, db.catalog, rel, opts);
  OptimizedPlan is =
      OptimizePlan(Approach::kIShare, queries, db.catalog, rel, opts);
  EXPECT_LE(is.est_cost.total_work, su.est_cost.total_work * 1.0001);
}

TEST(ApproachesTest, DecompositionHelpsDivergentConstraints) {
  TestDb db(600, 10);
  // Two near-identical queries; q0 very lazy, q1 very eager. Sharing forces
  // eagerness on everything; iShare should unshare (or at least match).
  std::vector<QueryPlan> queries = TwoFilteredAggQueries(db.catalog);
  std::vector<double> rel = {1.0, 0.05};
  ApproachOptions opts;
  opts.max_pace = 40;
  OptimizedPlan no_unshare = OptimizePlan(Approach::kIShareNoUnshare, queries,
                                          db.catalog, rel, opts);
  OptimizedPlan ishare =
      OptimizePlan(Approach::kIShare, queries, db.catalog, rel, opts);
  EXPECT_LE(ishare.est_cost.total_work,
            no_unshare.est_cost.total_work * 1.0001);
}

TEST(ApproachesTest, AbsoluteConstraintsScaleWithRelative) {
  TestDb db(300, 10);
  std::vector<QueryPlan> queries = TwoFilteredAggQueries(db.catalog);
  std::vector<double> abs1 = AbsoluteConstraints(queries, db.catalog, {1.0, 1.0});
  std::vector<double> abs2 = AbsoluteConstraints(queries, db.catalog, {0.5, 0.25});
  EXPECT_NEAR(abs2[0], abs1[0] * 0.5, 1e-9);
  EXPECT_NEAR(abs2[1], abs1[1] * 0.25, 1e-9);
}

TEST(ApproachesTest, MemoizationReducesOptimizationTime) {
  TestDb db(300, 10);
  // Queries that merge into a multi-subplan shared plan (shared aggregate
  // below, distinct roots above): memoization skips re-simulating the
  // shared subplan when only a root's pace changes.
  auto mk_agg = [&](PlanBuilder& b) {
    return b.Aggregate(b.ScanFiltered("orders", nullptr), {"o_custkey"},
                       {SumAgg(Col("o_amount"), "total")});
  };
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  std::vector<QueryPlan> queries = {
      QueryPlan{0, "q0",
                b0.Project(mk_agg(b0), {{Col("total"), "total"}})},
      QueryPlan{1, "q1",
                b1.Aggregate(mk_agg(b1), {}, {MaxAgg(Col("total"), "m")})}};
  std::vector<double> rel = {0.2, 0.2};
  ApproachOptions with;
  with.max_pace = 25;
  ApproachOptions without = with;
  without.memoized_estimator = false;
  OptimizedPlan a = OptimizePlan(Approach::kIShareNoUnshare, queries,
                                 db.catalog, rel, with);
  OptimizedPlan b = OptimizePlan(Approach::kIShareNoUnshare, queries,
                                 db.catalog, rel, without);
  // Identical plans and costs; only the work to find them differs.
  EXPECT_EQ(a.paces, b.paces);
  EXPECT_NEAR(a.est_cost.total_work, b.est_cost.total_work, 1e-6);
  EXPECT_GT(b.memo_misses, a.memo_misses);
}

}  // namespace
}  // namespace ishare
