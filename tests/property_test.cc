// Property-style sweeps over the cost model and the executor:
//  - the estimator's total work is non-decreasing and its final work
//    non-increasing in the pace, for incrementable plans,
//  - estimated batch work tracks measured batch work within a calibration
//    band on every TPC-H query,
//  - runtime invariants hold across pace sweeps (weights net out, per-query
//    outputs are insert-only at the end, executions match the schedule).

#include <gtest/gtest.h>

#include "ishare/cost/estimator.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

TpchDb* Db() {
  static TpchDb* db = new TpchDb(TpchScale{0.004, 21});
  return db;
}

class PaceMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(PaceMonotonicity, TotalWorkNonDecreasingFinalWorkNonIncreasing) {
  // An SPJ+aggregate plan (incrementable): work must be monotone in pace.
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0);
  SubplanGraph g = SubplanGraph::Build({q});
  CostEstimator est(&g, &Db()->catalog);
  double prev_total = -1;
  double prev_final = 1e300;
  for (int pace : {1, 2, 4, 8, 16, 32}) {
    PaceConfig p(g.num_subplans(), pace);
    PlanCost c = est.Estimate(p);
    EXPECT_GE(c.total_work, prev_total - 1e-6) << "pace " << pace;
    // Final work may plateau for non-incrementable parts but must not grow
    // significantly for these SPJ-style queries.
    EXPECT_LE(c.query_final_work[0], prev_final * 1.05) << "pace " << pace;
    prev_total = c.total_work;
    prev_final = c.query_final_work[0];
  }
}

// Q1 (scan+agg), Q3 (join), Q5 (multi-join), Q6 (scan only), Q10, Q12.
INSTANTIATE_TEST_SUITE_P(IncrementableQueries, PaceMonotonicity,
                         ::testing::Values(1, 3, 5, 6, 10, 12));

class EstimatorCalibration : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorCalibration, BatchEstimateWithinBandOfMeasurement) {
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0);
  double est = EstimateStandaloneBatchWork(q, Db()->catalog);

  Db()->Reset();
  SubplanGraph g = SubplanGraph::Build({q});
  AdaptiveExecutor exec(&g, &Db()->source);
  RunResult r = exec.Run(PaceConfig(g.num_subplans(), 1)).value().run;
  double measured = r.query_final_work[0];

  EXPECT_GT(est, 0);
  EXPECT_GT(measured, 0);
  // Calibration band: within 5x either way. Catches gross cost-model
  // regressions while tolerating cardinality-estimation error (which the
  // paper likewise accepts, Sec. 3.2).
  EXPECT_LT(est, measured * 5.0) << q.name;
  EXPECT_GT(est, measured / 5.0) << q.name;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, EstimatorCalibration,
                         ::testing::Range(1, 23));

class PaceSweep : public ::testing::TestWithParam<int> {};

TEST_P(PaceSweep, RuntimeInvariants) {
  int pace = GetParam();
  QueryPlan q = TpchQuery(Db()->catalog, 5, 0);
  SubplanGraph g = SubplanGraph::Build({q});
  Db()->Reset();
  AdaptiveExecutor exec(&g, &Db()->source);
  RunResult r = exec.Run(PaceConfig(g.num_subplans(), pace)).value().run;

  for (int s = 0; s < g.num_subplans(); ++s) {
    const SubplanRunStats& st = r.subplans[s];
    // Exactly `pace` executions, the last at the trigger point.
    EXPECT_EQ(st.work_per_exec.size(), static_cast<size_t>(pace));
    EXPECT_DOUBLE_EQ(st.exec_fraction.back(), 1.0);
    // Every execution pays at least the startup cost.
    for (double w : st.work_per_exec) EXPECT_GE(w, 32.0 - 1e-9);
    // Totals are consistent.
    double sum = 0;
    for (double w : st.work_per_exec) sum += w;
    EXPECT_NEAR(sum, st.total_work, 1e-6);
  }

  // Net multiplicity of every query result row is positive.
  auto res = MaterializeResult(*exec.query_output(0), 0);
  for (const auto& [row, mult] : res) EXPECT_GT(mult, 0);
}

INSTANTIATE_TEST_SUITE_P(Paces, PaceSweep, ::testing::Values(1, 2, 5, 10, 25));

TEST(DuplicateRowTest, ProjectionCreatingDuplicatesKeepsMultiplicity) {
  // Dropping the key column creates duplicate rows whose multiplicities
  // must survive joins and aggregates.
  Schema s({{"id", DataType::kInt64}, {"cat", DataType::kInt64}});
  Catalog catalog;
  CHECK(catalog.AddTable("t", s, TableStats()).ok());
  StreamSource source;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 30; ++i) rows.push_back({Value(i), Value(i % 3)});
  source.AddTable("t", s, std::move(rows));

  PlanBuilder b(&catalog, 0);
  // project to cat only -> 10 duplicates of each of 3 categories.
  PlanNodePtr proj =
      b.Project(b.ScanFiltered("t", nullptr), {{Col("cat"), "cat"}});
  QueryPlan q{0, "dup", b.Aggregate(proj, {"cat"}, {CountAgg("n")})};
  for (int pace : {1, 4}) {
    source.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &source);
    exec.Run(PaceConfig(g.num_subplans(), pace)).value();
    auto res = MaterializeResult(*exec.query_output(0), 0);
    ASSERT_EQ(res.size(), 3u);
    for (const auto& [row, mult] : res) {
      EXPECT_EQ(row[1].AsInt(), 10) << "pace " << pace;
    }
  }
}

TEST(DuplicateRowTest, JoinOnDuplicateRowsMultipliesWeights) {
  Schema s({{"k", DataType::kInt64}});
  Catalog catalog;
  CHECK(catalog.AddTable("a", s, TableStats()).ok());
  CHECK(catalog.AddTable("bt", s, TableStats()).ok());
  StreamSource source;
  // 'a' has key 7 twice; 'bt' has key 7 three times.
  source.AddTable("a", s, {{Value(int64_t{7})}, {Value(int64_t{7})}});
  source.AddTable("bt", s,
                  {{Value(int64_t{7})}, {Value(int64_t{7})},
                   {Value(int64_t{7})}});
  PlanBuilder b(&catalog, 0);
  QueryPlan q{0, "dupjoin",
              b.Aggregate(b.Join(b.ScanFiltered("a", nullptr),
                                 b.ScanFiltered("bt", nullptr), {"k"}, {"k"}),
                          {}, {CountAgg("n")})};
  for (int pace : {1, 2}) {
    source.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &source);
    exec.Run(PaceConfig(g.num_subplans(), pace)).value();
    auto res = MaterializeResult(*exec.query_output(0), 0);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res.begin()->first[0].AsInt(), 6) << "pace " << pace;
  }
}

TEST(MixedPaceTest, ParentLazierThanChildConverges) {
  // Shared subplan at pace 6, one parent at 3, one at 2, one at 1.
  TpchDb* db = Db();
  QueryPlan qa = PaperQueryA(db->catalog, 0);
  QueryPlan qb = PaperQueryB(db->catalog, 1);
  MqoOptimizer mqo(&db->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({qa, qb}));
  PaceConfig paces(g.num_subplans(), 1);
  for (int i : g.TopoChildrenFirst()) {
    paces[i] = g.subplan(i).children.empty() ? 6
               : g.subplan(i).parents.empty() ? 1
                                              : 2;
  }
  // Enforce parent <= child.
  for (int i : g.TopoParentsFirst()) {
    for (int c : g.subplan(i).children) {
      paces[c] = std::max(paces[c], paces[i]);
    }
  }
  db->Reset();
  AdaptiveExecutor e1(&g, &db->source);
  e1.Run(paces).value();
  auto mixed0 = MaterializeResult(*e1.query_output(0), 0);
  auto mixed1 = MaterializeResult(*e1.query_output(1), 1);

  db->Reset();
  AdaptiveExecutor e2(&g, &db->source);
  e2.Run(PaceConfig(g.num_subplans(), 1)).value();
  EXPECT_TRUE(ResultsNear(mixed0, MaterializeResult(*e2.query_output(0), 0)));
  EXPECT_TRUE(ResultsNear(mixed1, MaterializeResult(*e2.query_output(1), 1)));
}

}  // namespace
}  // namespace ishare
