#include <gtest/gtest.h>

#include <functional>

#include "ishare/cost/estimator.h"
#include "ishare/cost/selectivity.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/opt/approaches.h"
#include "ishare/plan/builder.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

TEST(CardenasTest, Basics) {
  EXPECT_DOUBLE_EQ(CardenasDistinct(10, 0), 0.0);
  EXPECT_NEAR(CardenasDistinct(10, 1), 1.0, 1e-9);
  // Saturates at the number of distinct values.
  EXPECT_NEAR(CardenasDistinct(10, 10000), 10.0, 1e-6);
  // Monotone in n.
  EXPECT_LT(CardenasDistinct(100, 50), CardenasDistinct(100, 100));
  // With one group, any positive draw touches it.
  EXPECT_DOUBLE_EQ(CardenasDistinct(1, 5), 1.0);
}

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest() {
    ColumnStats num;
    num.numeric = true;
    num.ndv = 100;
    num.min = 0;
    num.max = 100;
    profile_["x"] = num;
    ColumnStats str;
    str.numeric = false;
    str.ndv = 20;
    profile_["s"] = str;
  }
  ColumnProfile profile_;
};

TEST_F(SelectivityTest, Equality) {
  EXPECT_NEAR(EstimateSelectivity(Eq(Col("x"), Lit(5)), profile_), 0.01, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Eq(Col("s"), Lit("a")), profile_), 0.05,
              1e-9);
}

TEST_F(SelectivityTest, Range) {
  EXPECT_NEAR(EstimateSelectivity(Lt(Col("x"), Lit(25)), profile_), 0.25,
              1e-9);
  EXPECT_NEAR(EstimateSelectivity(Gt(Col("x"), Lit(25)), profile_), 0.75,
              1e-9);
  // Mirrored literal-on-left form.
  EXPECT_NEAR(EstimateSelectivity(Gt(Lit(25), Col("x")), profile_), 0.25,
              1e-9);
}

TEST_F(SelectivityTest, AndOrNot) {
  ExprPtr a = Lt(Col("x"), Lit(50));  // 0.5
  ExprPtr b = Eq(Col("s"), Lit("a"));  // 0.05
  EXPECT_NEAR(EstimateSelectivity(And(a, b), profile_), 0.025, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Or(a, b), profile_), 0.5 + 0.05 - 0.025,
              1e-9);
  EXPECT_NEAR(EstimateSelectivity(Not(a), profile_), 0.5, 1e-9);
}

TEST_F(SelectivityTest, InListAndLike) {
  EXPECT_NEAR(
      EstimateSelectivity(Expr::In(Col("s"), {Value("a"), Value("b")}),
                          profile_),
      0.1, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Expr::Like(Col("s"), "%x%"), profile_),
              kDefaultLikeSelectivity, 1e-9);
}

TEST_F(SelectivityTest, NullPredicatePassesEverything) {
  EXPECT_DOUBLE_EQ(EstimateSelectivity(nullptr, profile_), 1.0);
}

TEST_F(SelectivityTest, ClampedToMinimum) {
  ExprPtr tiny = And(And(Eq(Col("x"), Lit(1)), Eq(Col("x"), Lit(2))),
                     And(Eq(Col("x"), Lit(3)), Eq(Col("x"), Lit(4))));
  EXPECT_GE(EstimateSelectivity(tiny, profile_), kMinSelectivity);
}

// --- Simulator ---

class SimTest : public ::testing::Test {
 protected:
  SimTest() : db_(400, 10) {}

  PlanNodePtr AggPlan(QueryId q) {
    PlanBuilder b(&db_.catalog, q);
    return b.Aggregate(b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0))),
                       {"o_custkey"}, {SumAgg(Col("o_amount"), "total")});
  }

  TestDb db_;
  ExecOptions exec_;
};

TEST_F(SimTest, BatchCostPositiveAndFinalEqualsTotal) {
  SimResult r = SimulateSubplan(AggPlan(0), db_.catalog, 1, {}, exec_);
  EXPECT_GT(r.private_total_work, 0);
  EXPECT_DOUBLE_EQ(r.private_total_work, r.private_final_work);
  EXPECT_GT(r.out_card, 0);
  EXPECT_LE(r.out_card, 11);  // at most one row per customer
}

TEST_F(SimTest, EagerPaceIncreasesTotalWorkAndReducesFinalWork) {
  SimResult lazy = SimulateSubplan(AggPlan(0), db_.catalog, 1, {}, exec_);
  SimResult eager = SimulateSubplan(AggPlan(0), db_.catalog, 10, {}, exec_);
  EXPECT_GT(eager.private_total_work, lazy.private_total_work);
  EXPECT_LT(eager.private_final_work, lazy.private_final_work);
}

TEST_F(SimTest, PerOpWorkCoversAllOperators) {
  PlanNodePtr plan = AggPlan(0);
  SimResult r = SimulateSubplan(plan, db_.catalog, 2, {}, exec_);
  std::vector<PlanNodePtr> nodes;
  CollectNodes(plan, &nodes);
  EXPECT_EQ(r.per_op_work.size(), nodes.size());
  double sum = 0;
  for (double w : r.per_op_work) sum += w;
  // Total work = per-op work + per-execution startup costs.
  EXPECT_NEAR(r.private_total_work, sum + 2 * exec_.startup_cost, 1e-6);
}

TEST_F(SimTest, RestrictSimInputScalesCards) {
  SimInput in;
  in.card = 100;
  in.deletes = 10;
  in.queries = {0, 1};
  in.per_query = {100, 50};
  SimInput only1 = RestrictSimInput(in, QuerySet::Single(1));
  EXPECT_EQ(only1.per_query.size(), 1u);
  ASSERT_EQ(only1.queries, std::vector<QueryId>{1});
  EXPECT_DOUBLE_EQ(only1.per_query[0], 50);
  EXPECT_DOUBLE_EQ(only1.card, 50);
  EXPECT_DOUBLE_EQ(only1.deletes, 5);

  SimInput both = RestrictSimInput(in, QuerySet::FromIds({0, 1}));
  EXPECT_DOUBLE_EQ(both.card, 100);  // q0 already covers everything
}

TEST(UnionFractionTest, IndependenceModel) {
  std::vector<double> pq{50, 50};  // queries 0 and 1
  // Two independent half-coverage queries: 1 - 0.25 = 0.75.
  EXPECT_NEAR(UnionFraction(pq, 100), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(UnionFraction({}, 100), 0.0);
  EXPECT_DOUBLE_EQ(UnionFraction(pq, 0), 0.0);
}

// --- Estimator / Algorithm 1 ---

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

TEST(EstimatorTest, MemoHitsOnRepeatedEstimates) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig p(g.num_subplans(), 2);
  PlanCost c1 = est.Estimate(p);
  int64_t misses_after_first = est.memo_misses();
  PlanCost c2 = est.Estimate(p);
  EXPECT_EQ(est.memo_misses(), misses_after_first);
  EXPECT_GT(est.memo_hits(), 0);
  EXPECT_DOUBLE_EQ(c1.total_work, c2.total_work);
}

TEST(EstimatorTest, MemoOnlyRecomputesChangedPrivateConfigs) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig p(g.num_subplans(), 2);
  est.Estimate(p);
  int64_t misses = est.memo_misses();
  // Raising the pace of a root subplan leaves the shared child's private
  // configuration unchanged: exactly one new simulation.
  int root0 = g.query_root(0);
  p[root0] += 1;
  est.Estimate(p);
  EXPECT_EQ(est.memo_misses(), misses + 1);
}

TEST(EstimatorTest, MemoMatchesNoMemo) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  CostEstimator with(&g, &db.catalog);
  CostEstimator without(&g, &db.catalog, ExecOptions(), /*use_memo=*/false);
  for (int p = 1; p <= 4; ++p) {
    PaceConfig pc(g.num_subplans(), p);
    PlanCost a = with.Estimate(pc);
    PlanCost b = without.Estimate(pc);
    EXPECT_EQ(a.total_work, b.total_work);
    for (int q = 0; q < 2; ++q) {
      EXPECT_EQ(a.query_final_work[q], b.query_final_work[q]);
    }
  }
}

TEST(EstimatorTest, FinalWorkSumsQuerySubplans) {
  TestDb db(300, 10);
  SubplanGraph g = SubplanGraph::Build(SharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig p(g.num_subplans(), 3);
  PlanCost c = est.Estimate(p);
  double direct = 0;
  for (int s : g.SubplansOfQuery(0)) {
    direct += est.SubplanResult(s, p).private_final_work;
  }
  EXPECT_NEAR(c.query_final_work[0], direct, 1e-9);
}

TEST(EstimatorTest, StandaloneBatchWorkPositive) {
  TestDb db(300, 10);
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "q",
              b.Aggregate(b.Scan("orders"), {"o_custkey"},
                          {SumAgg(Col("o_amount"), "t")})};
  EXPECT_GT(EstimateStandaloneBatchWork(q, db.catalog), 0);
}

// --- Incremental candidates and compiled models ---

// Every double of two PlanCosts, exactly.
void ExpectSameCost(const PlanCost& a, const PlanCost& b) {
  EXPECT_EQ(a.total_work, b.total_work);
  ASSERT_EQ(a.query_final_work.size(), b.query_final_work.size());
  for (size_t q = 0; q < a.query_final_work.size(); ++q) {
    EXPECT_EQ(a.query_final_work[q], b.query_final_work[q]) << "query " << q;
  }
}

// Every double of two SimResults, exactly.
void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.private_total_work, b.private_total_work);
  EXPECT_EQ(a.private_final_work, b.private_final_work);
  EXPECT_EQ(a.out_card, b.out_card);
  EXPECT_EQ(a.out_deletes, b.out_deletes);
  EXPECT_EQ(a.out_per_query, b.out_per_query);
  EXPECT_EQ(a.per_op_work, b.per_op_work);
}

// A plan under test: its subplan graph and the absolute constraints of a
// relative constraint of 0.2.
struct TestPlan {
  SubplanGraph graph;
  std::vector<double> constraints;
};

TestPlan MakeTestPlan(const std::vector<QueryPlan>& queries,
                      const Catalog& catalog, bool merge) {
  TestPlan p;
  p.graph = SubplanGraph::Build(
      merge ? MqoOptimizer(&catalog).Merge(queries) : queries);
  p.constraints = AbsoluteConstraints(
      queries, catalog, std::vector<double>(queries.size(), 0.2));
  return p;
}

// Valid start configurations: all 1s, the greedy search's result, and a
// seeded random configuration with parent <= child.
std::vector<PaceConfig> StartConfigs(const TestPlan& p, const Catalog& catalog,
                                     int max_pace) {
  const SubplanGraph& g = p.graph;
  std::vector<PaceConfig> out;
  out.emplace_back(g.num_subplans(), 1);
  CostEstimator est(&g, &catalog);
  PaceOptimizer po(&est, p.constraints, PaceOptimizerOptions{max_pace});
  out.push_back(po.FindPaceConfiguration().paces);
  Rng rng(17);
  PaceConfig rnd(g.num_subplans(), 1);
  for (int i : g.TopoParentsFirst()) {
    int floor = 1;
    for (int parent : g.subplan(i).parents) {
      floor = std::max(floor, rnd[parent]);
    }
    int step = static_cast<int>(rng.UniformInt(0, 3));
    rnd[i] = std::min(max_pace, floor + step);
  }
  out.push_back(rnd);
  return out;
}

// Every legal single-subplan move from `base`: raises keep each child's
// pace >= the new pace, lowers keep each parent's pace <= it.
std::vector<std::pair<int, int>> LegalMoves(const SubplanGraph& g,
                                            const PaceConfig& base,
                                            int max_pace) {
  std::vector<std::pair<int, int>> moves;
  for (int i = 0; i < g.num_subplans(); ++i) {
    bool raise = base[i] < max_pace;
    for (int c : g.subplan(i).children) raise = raise && base[c] >= base[i] + 1;
    if (raise) moves.emplace_back(i, base[i] + 1);
    bool lower = base[i] > 1;
    for (int parent : g.subplan(i).parents) {
      lower = lower && base[parent] <= base[i] - 1;
    }
    if (lower) moves.emplace_back(i, base[i] - 1);
  }
  return moves;
}

// Sweeps every legal move from each start configuration, then adopts the
// first move (as the greedy search does, without a whole-plan estimate)
// and sweeps again. Each incremental candidate must equal a fresh
// estimator's whole-plan estimate in every double and add exactly the memo
// misses a whole-plan estimate adds on an estimator with the same history.
void CheckIncrementalCandidates(const TestPlan& p, const Catalog& catalog,
                                int max_pace) {
  const SubplanGraph& g = p.graph;
  CostEstimator incremental(&g, &catalog);
  CostEstimator whole(&g, &catalog);
  int checked = 0;
  for (const PaceConfig& start : StartConfigs(p, catalog, max_pace)) {
    ExpectSameCost(incremental.Estimate(start), whole.Estimate(start));
    ASSERT_EQ(incremental.memo_misses(), whole.memo_misses());
    PaceConfig base = start;
    for (int round = 0; round < 2; ++round) {
      std::vector<std::pair<int, int>> moves = LegalMoves(g, base, max_pace);
      ASSERT_FALSE(moves.empty());
      for (auto [s, pace] : moves) {
        PaceConfig cand = base;
        cand[s] = pace;
        int64_t inc_before = incremental.memo_misses();
        int64_t whole_before = whole.memo_misses();
        PlanCost got = incremental.EstimateWithPace(base, s, pace);
        PlanCost want = whole.Estimate(cand);
        CostEstimator fresh(&g, &catalog);
        ExpectSameCost(got, fresh.Estimate(cand));
        ExpectSameCost(got, want);
        // A candidate on an estimator that never estimated its base.
        CostEstimator cold(&g, &catalog);
        ExpectSameCost(got, cold.EstimateWithPace(base, s, pace));
        EXPECT_EQ(incremental.memo_misses() - inc_before,
                  whole.memo_misses() - whole_before)
            << "subplan " << s << " to pace " << pace;
        ++checked;
      }
      base[moves[0].first] = moves[0].second;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(EstimatorTest, IncrementalCandidateEqualsWholePlanOnSharedDag) {
  TestDb db(300, 10);
  std::vector<QueryPlan> queries = SharedDag(db.catalog);
  CheckIncrementalCandidates(MakeTestPlan(queries, db.catalog, false),
                             db.catalog, 20);
}

TEST(EstimatorTest, IncrementalCandidateEqualsWholePlanOnMerged22) {
  TpchDb db(TpchScale{0.002, 3});
  CheckIncrementalCandidates(
      MakeTestPlan(AllTpchQueries(db.catalog), db.catalog, true), db.catalog,
      50);
}

// One compiled model run at paces 50, 1 and 7, in that order, returns
// exactly what a fresh compile returns at each pace, for every subplan of
// the plan (inputs taken from the children at pace 3).
void CheckModelsCarryNoState(const SubplanGraph& g, const Catalog& catalog) {
  CostEstimator est(&g, &catalog);
  PaceConfig threes(g.num_subplans(), 3);
  ExecOptions opts;
  for (int s : g.TopoChildrenFirst()) {
    std::vector<int> children;
    std::function<void(const PlanNodePtr&)> leaves = [&](const PlanNodePtr& n) {
      if (n->kind == PlanKind::kSubplanInput) {
        children.push_back(n->input_subplan);
        return;
      }
      for (const PlanNodePtr& c : n->children) leaves(c);
    };
    leaves(g.subplan(s).root);
    std::vector<SimInput> inputs;
    for (int c : children) {
      const SimResult& r = est.SubplanResult(c, threes);
      SimInput in;
      in.card = r.out_card;
      in.deletes = r.out_deletes;
      in.per_query = r.out_per_query;
      in.queries = est.Model(c).out_queries();
      in.profile = &est.Model(c).out_profile();
      inputs.push_back(std::move(in));
    }
    std::vector<SimFlow> flows;
    for (const SimInput& in : inputs) flows.push_back(FlowOf(in));
    CompiledSubplan reused(g.subplan(s).root, catalog, inputs);
    for (int pace : {50, 1, 7}) {
      SCOPED_TRACE("subplan " + std::to_string(s) + " pace " +
                   std::to_string(pace));
      ExpectSameResult(reused.Run(pace, flows, opts),
                       SimulateSubplan(g.subplan(s).root, catalog, pace,
                                       inputs, opts));
    }
  }
}

TEST(EstimatorTest, ReusedModelCarriesNoStateOnSharedDag) {
  TestDb db(300, 10);
  CheckModelsCarryNoState(SubplanGraph::Build(SharedDag(db.catalog)),
                          db.catalog);
}

TEST(EstimatorTest, ReusedModelCarriesNoStateOnMerged22) {
  TpchDb db(TpchScale{0.002, 3});
  CheckModelsCarryNoState(
      MakeTestPlan(AllTpchQueries(db.catalog), db.catalog, true).graph,
      db.catalog);
}

}  // namespace
}  // namespace ishare
