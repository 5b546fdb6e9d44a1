// PaceExecutorTest covers the static pace schedule (paper Sec. 2.2): an
// AdaptiveExecutor built without a cost estimator runs exactly the given
// paces.

#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/plan/builder.h"
#include "test_util.h"

namespace ishare {
namespace {

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

ResultMap RunAndMaterialize(TestDb* db, const SubplanGraph& g,
                            const PaceConfig& paces, QueryId q,
                            RunResult* result_out = nullptr) {
  db->source.Reset();
  AdaptiveExecutor exec(&g, &db->source);
  RunResult r = exec.Run(paces).value().run;
  if (result_out != nullptr) *result_out = r;
  return MaterializeResult(*exec.query_output(q), q);
}

TEST(PaceExecutorTest, BatchMatchesDirectComputation) {
  TestDb db(/*n_orders=*/200, /*n_customers=*/8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  ResultMap res = RunAndMaterialize(&db, g, {1, 1, 1}, 0);
  // Expect one result row per customer that has at least one order.
  EXPECT_GT(res.size(), 0u);
  EXPECT_LE(res.size(), 8u);
  for (const auto& [row, mult] : res) EXPECT_EQ(mult, 1);
}

// The central engine invariant: any pace configuration converges to the
// batch result for every query.
class PaceEquivalence : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(PaceEquivalence, IncrementalEqualsBatch) {
  TestDb db(/*n_orders=*/150, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  ASSERT_EQ(g.num_subplans(), 3);
  ResultMap batch0 = RunAndMaterialize(&db, g, {1, 1, 1}, 0);
  ResultMap batch1 = RunAndMaterialize(&db, g, {1, 1, 1}, 1);

  PaceConfig paces = GetParam();
  ResultMap inc0 = RunAndMaterialize(&db, g, paces, 0);
  ResultMap inc1 = RunAndMaterialize(&db, g, paces, 1);
  EXPECT_EQ(inc0, batch0);
  EXPECT_EQ(inc1, batch1);
}

INSTANTIATE_TEST_SUITE_P(
    Paces, PaceEquivalence,
    ::testing::Values(std::vector<int>{2, 2, 2}, std::vector<int>{5, 5, 5},
                      std::vector<int>{1, 1, 7}, std::vector<int>{3, 1, 9},
                      std::vector<int>{10, 10, 10},
                      std::vector<int>{1, 2, 4}));

TEST(PaceExecutorTest, EagerExecutionCostsMoreTotalWork) {
  TestDb db(/*n_orders=*/400, /*n_customers=*/10);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  RunResult lazy, eager;
  RunAndMaterialize(&db, g, {1, 1, 1}, 0, &lazy);
  RunAndMaterialize(&db, g, {20, 20, 20}, 0, &eager);
  EXPECT_GT(eager.total_work, lazy.total_work);
}

TEST(PaceExecutorTest, EagerExecutionReducesFinalWork) {
  TestDb db(/*n_orders=*/400, /*n_customers=*/10);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  RunResult lazy, eager;
  RunAndMaterialize(&db, g, {1, 1, 1}, 0, &lazy);
  RunAndMaterialize(&db, g, {20, 20, 20}, 0, &eager);
  EXPECT_LT(eager.query_final_work[0], lazy.query_final_work[0]);
  EXPECT_LT(eager.query_final_work[1], lazy.query_final_work[1]);
}

TEST(PaceExecutorTest, FinalWorkIsSumOfQuerySubplans) {
  TestDb db(/*n_orders=*/100, /*n_customers=*/5);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  RunResult r;
  RunAndMaterialize(&db, g, {4, 2, 2}, 0, &r);
  for (QueryId q = 0; q < 2; ++q) {
    double expect = 0;
    for (int s : g.SubplansOfQuery(q)) expect += r.subplans[s].final_work;
    EXPECT_DOUBLE_EQ(r.query_final_work[q], expect);
  }
}

TEST(PaceExecutorTest, ExecutionCountsMatchPaces) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/5);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  RunResult r;
  PaceConfig paces = {6, 3, 2};
  RunAndMaterialize(&db, g, paces, 0, &r);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(r.subplans[s].work_per_exec.size(),
              static_cast<size_t>(paces[s]))
        << "subplan " << s;
    EXPECT_EQ(r.subplans[s].exec_fraction.back(), 1.0);
  }
}

TEST(PaceExecutorTest, JoinPlanEquivalence) {
  TestDb db(/*n_orders=*/200, /*n_customers=*/10);
  // Join orders with customer, filter region, then aggregate per customer.
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr join =
      b.Join(b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(20.0))),
             b.ScanFiltered("customer", Eq(Col("c_region"), Lit("ASIA"))),
             {"o_custkey"}, {"c_custkey"});
  PlanNodePtr root = b.Aggregate(join, {"c_custkey"},
                                 {SumAgg(Col("o_amount"), "total"),
                                  CountAgg("orders_cnt")});
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "j", root}});
  ASSERT_EQ(g.num_subplans(), 1);
  ResultMap batch = RunAndMaterialize(&db, g, {1}, 0);
  ResultMap inc = RunAndMaterialize(&db, g, {7}, 0);
  EXPECT_EQ(inc, batch);
  EXPECT_GT(batch.size(), 0u);
}

TEST(PaceExecutorTest, SemiJoinPlanEquivalence) {
  TestDb db(/*n_orders=*/150, /*n_customers=*/30);
  // Customers that have at least one large order.
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr root =
      b.Join(b.Scan("customer"),
             b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(80.0))),
             {"c_custkey"}, {"o_custkey"}, JoinType::kLeftSemi);
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "semi", root}});
  ResultMap batch = RunAndMaterialize(&db, g, {1}, 0);
  ResultMap inc = RunAndMaterialize(&db, g, {9}, 0);
  EXPECT_EQ(inc, batch);
  EXPECT_GT(batch.size(), 0u);
}

TEST(PaceExecutorTest, AntiJoinPlanEquivalence) {
  TestDb db(/*n_orders=*/150, /*n_customers=*/30);
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr root =
      b.Join(b.Scan("customer"),
             b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(80.0))),
             {"c_custkey"}, {"o_custkey"}, JoinType::kLeftAnti);
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "anti", root}});
  ResultMap batch = RunAndMaterialize(&db, g, {1}, 0);
  ResultMap inc = RunAndMaterialize(&db, g, {9}, 0);
  EXPECT_EQ(inc, batch);
  // Semi + anti partitions the customers.
  EXPECT_GT(batch.size(), 0u);
}

TEST(PaceExecutorTest, MaxOverSumChurnsUnderEagerness) {
  // The Q15 pattern: MAX over per-group SUM. Eager execution repeatedly
  // deletes the max and rescans; lazy execution avoids it entirely.
  TestDb db(/*n_orders=*/600, /*n_customers=*/12);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  RunResult lazy, eager;
  RunAndMaterialize(&db, g, {1, 1, 1}, 1, &lazy);
  RunAndMaterialize(&db, g, {30, 30, 30}, 1, &eager);
  int max_subplan = g.query_root(1);
  EXPECT_GT(eager.subplans[max_subplan].total_work,
            3 * lazy.subplans[max_subplan].total_work);
}

}  // namespace
}  // namespace ishare
