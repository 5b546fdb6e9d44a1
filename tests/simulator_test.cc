// Focused tests of the analytic operator models in the subplan simulator:
// join state growth, semi/anti match probabilities, aggregate churn
// saturation, and subplan-input masking.

#include <gtest/gtest.h>

#include "ishare/cost/simulator.h"
#include "ishare/plan/builder.h"
#include "test_util.h"

namespace ishare {
namespace {

class SimModelTest : public ::testing::Test {
 protected:
  SimModelTest() : db_(1000, 20) {}
  TestDb db_;
  ExecOptions exec_;
};

TEST_F(SimModelTest, JoinOutputCardinalityMatchesFkExpectation) {
  // orders ⋈ customer on custkey: one customer per order, so the join
  // output should be ~n_orders.
  PlanBuilder b(&db_.catalog, 0);
  PlanNodePtr j = b.Join(b.ScanFiltered("orders", nullptr),
                         b.ScanFiltered("customer", nullptr), {"o_custkey"},
                         {"c_custkey"});
  SimResult r = SimulateSubplan(j, db_.catalog, 1, {}, exec_);
  EXPECT_GT(r.out_card, 600);
  EXPECT_LT(r.out_card, 1500);
}

TEST_F(SimModelTest, JoinCardinalityPaceInvariant) {
  // Total join output should not depend (much) on the pace.
  PlanBuilder b(&db_.catalog, 0);
  PlanNodePtr j = b.Join(b.ScanFiltered("orders", nullptr),
                         b.ScanFiltered("customer", nullptr), {"o_custkey"},
                         {"c_custkey"});
  SimResult lazy = SimulateSubplan(j, db_.catalog, 1, {}, exec_);
  SimResult eager = SimulateSubplan(j, db_.catalog, 10, {}, exec_);
  EXPECT_NEAR(eager.out_card, lazy.out_card, 0.1 * lazy.out_card);
}

TEST_F(SimModelTest, SemiJoinBoundedByLeftCardinality) {
  PlanBuilder b(&db_.catalog, 0);
  PlanNodePtr j = b.Join(b.ScanFiltered("customer", nullptr),
                         b.ScanFiltered("orders", nullptr), {"c_custkey"},
                         {"o_custkey"}, JoinType::kLeftSemi);
  SimResult r = SimulateSubplan(j, db_.catalog, 1, {}, exec_);
  EXPECT_GT(r.out_card, 0);
  EXPECT_LE(r.out_card, db_.catalog.GetStats("customer").row_count * 1.01);
}

TEST_F(SimModelTest, SemiPlusAntiCoverLeftSide) {
  PlanBuilder b(&db_.catalog, 0);
  auto run = [&](JoinType t) {
    PlanNodePtr j = b.Join(b.ScanFiltered("customer", nullptr),
                           b.ScanFiltered("orders", nullptr), {"c_custkey"},
                           {"o_custkey"}, t);
    return SimulateSubplan(j, db_.catalog, 1, {}, exec_).out_card;
  };
  double semi = run(JoinType::kLeftSemi);
  double anti = run(JoinType::kLeftAnti);
  double total = db_.catalog.GetStats("customer").row_count;
  EXPECT_NEAR(semi + anti, total, 0.25 * total);
}

TEST_F(SimModelTest, AggregateChurnGrowsWithPaceUntilSaturation) {
  PlanBuilder b(&db_.catalog, 0);
  PlanNodePtr agg = b.Aggregate(b.ScanFiltered("orders", nullptr),
                                {"o_custkey"},
                                {SumAgg(Col("o_amount"), "t")});
  SimResult p1 = SimulateSubplan(agg, db_.catalog, 1, {}, exec_);
  SimResult p4 = SimulateSubplan(agg, db_.catalog, 4, {}, exec_);
  SimResult p16 = SimulateSubplan(agg, db_.catalog, 16, {}, exec_);
  // Churn (out_card) strictly grows with pace: each extra execution
  // re-touches existing groups.
  EXPECT_GT(p4.out_card, p1.out_card);
  EXPECT_GT(p16.out_card, p4.out_card);
  // At pace 1 there is exactly one insert per group.
  EXPECT_NEAR(p1.out_card, 20, 3);
}

TEST_F(SimModelTest, MinMaxChargesDeletePenalty) {
  PlanBuilder b(&db_.catalog, 0);
  // max over a churny child aggregate: the parent subplan's input carries
  // deletes, which the min/max model penalizes.
  PlanNodePtr inner = b.Aggregate(b.ScanFiltered("orders", nullptr),
                                  {"o_custkey"},
                                  {SumAgg(Col("o_amount"), "t")});
  SimInput in;
  CompiledSubplan inner_model(inner, db_.catalog, {});
  SimResult inner_r = inner_model.Run(8, {}, exec_);
  in.card = inner_r.out_card;
  in.deletes = inner_r.out_deletes;
  in.queries = inner_model.out_queries();
  in.per_query = inner_r.out_per_query;
  in.profile = &inner_model.out_profile();
  EXPECT_GT(in.deletes, 0);

  PlanNodePtr input_leaf =
      PlanNode::MakeSubplanInput(0, inner->output_schema, QuerySet::Single(0));
  PlanNodePtr max_node = PlanNode::MakeAggregate(
      input_leaf, {}, {MaxAgg(Col("t"), "m")}, QuerySet::Single(0));
  PlanNodePtr sum_node = PlanNode::MakeAggregate(
      input_leaf, {}, {SumAgg(Col("t"), "s")}, QuerySet::Single(0));
  SimResult max_r = SimulateSubplan(max_node, db_.catalog, 4, {in}, exec_);
  SimResult sum_r = SimulateSubplan(sum_node, db_.catalog, 4, {in}, exec_);
  EXPECT_GT(max_r.private_total_work, sum_r.private_total_work);
}

TEST_F(SimModelTest, SubplanInputMaskDropsForeignCards) {
  Schema s({{"x", DataType::kInt64}});
  SimInput in;
  in.card = 1000;
  in.deletes = 0;
  in.queries = {0, 1};
  in.per_query = {1000, 100};
  ColumnStats cs;
  cs.numeric = true;
  cs.ndv = 10;
  ColumnProfile profile;
  profile["x"] = cs;
  in.profile = &profile;

  PlanNodePtr leaf = PlanNode::MakeSubplanInput(0, s, QuerySet::Single(1));
  PlanNodePtr agg = PlanNode::MakeAggregate(leaf, {"x"}, {CountAgg("n")},
                                            QuerySet::Single(1));
  SimResult r = SimulateSubplan(agg, db_.catalog, 1, {in}, exec_);
  // Only q1's ~100 tuples survive the mask; groups capped at ndv 10.
  ASSERT_EQ(r.out_per_query.size(), 1u);
  ASSERT_EQ(CompiledSubplan(agg, db_.catalog, {&in, 1}).out_queries(),
            std::vector<QueryId>{1});
  EXPECT_NEAR(r.out_per_query[0], 10, 3);
}

TEST_F(SimModelTest, FilterSelectivityShapesPerQueryCards) {
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(db_.catalog, "orders", both);
  std::map<QueryId, ExprPtr> preds;
  preds[1] = Lt(Col("o_amount"), Lit(25.0));  // ~25% of [1, 100]
  PlanNodePtr filt = PlanNode::MakeFilter(scan, std::move(preds), both);
  SimResult r = SimulateSubplan(filt, db_.catalog, 1, {}, exec_);
  double n = db_.catalog.GetStats("orders").row_count;
  ASSERT_EQ(CompiledSubplan(filt, db_.catalog, {}).out_queries(),
            (std::vector<QueryId>{0, 1}));
  EXPECT_NEAR(r.out_per_query[0], n, 1);          // pass-through
  EXPECT_NEAR(r.out_per_query[1], 0.25 * n, 0.1 * n);
  // Union ≈ q0's full coverage.
  EXPECT_NEAR(r.out_card, n, 1);
}

TEST_F(SimModelTest, StartupCostChargedPerExecution) {
  PlanBuilder b(&db_.catalog, 0);
  PlanNodePtr scan = b.ScanFiltered("orders", nullptr);
  ExecOptions e1;
  e1.startup_cost = 100;
  SimResult p1 = SimulateSubplan(scan, db_.catalog, 1, {}, e1);
  SimResult p5 = SimulateSubplan(scan, db_.catalog, 5, {}, e1);
  EXPECT_NEAR(p5.private_total_work - p1.private_total_work, 400, 1.0);
}

}  // namespace
}  // namespace ishare
