#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/plan/builder.h"
#include "ishare/plan/subplan_graph.h"
#include "test_util.h"

namespace ishare {
namespace {

MqoOptions NoMatOptions() {
  MqoOptions o;
  o.account_materialization = false;
  return o;
}

TEST(MqoTest, MergesIdenticalScans) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a", b0.Aggregate(b0.ScanFiltered("orders", nullptr),
                                    {"o_custkey"},
                                    {SumAgg(Col("o_amount"), "t")})};
  QueryPlan q1{1, "b", b1.Aggregate(b1.ScanFiltered("orders", nullptr),
                                    {"o_custkey"},
                                    {SumAgg(Col("o_amount"), "t")})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  // Fully identical queries merge into a single root node.
  EXPECT_EQ(merged[0].root.get(), merged[1].root.get());
  EXPECT_EQ(merged[0].root->queries, QuerySet::FromIds({0, 1}));
}

TEST(MqoTest, DifferingSelectsShareWithMarkingPredicates) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a",
               b0.Aggregate(
                   b0.ScanFiltered("orders", Gt(Col("o_amount"), Lit(50.0))),
                   {"o_custkey"}, {SumAgg(Col("o_amount"), "t")})};
  QueryPlan q1{1, "b",
               b1.Aggregate(
                   b1.ScanFiltered("orders", Lt(Col("o_amount"), Lit(20.0))),
                   {"o_custkey"}, {SumAgg(Col("o_amount"), "t")})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  EXPECT_EQ(merged[0].root.get(), merged[1].root.get());
  // The shared filter carries both queries' predicates.
  const PlanNodePtr& filt = merged[0].root->children[0];
  ASSERT_EQ(filt->kind, PlanKind::kFilter);
  EXPECT_EQ(filt->predicates.size(), 2u);
}

TEST(MqoTest, IdenticalPredicatesShareOneObject) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a",
               b0.Aggregate(
                   b0.ScanFiltered("orders", Gt(Col("o_amount"), Lit(50.0))),
                   {"o_custkey"}, {SumAgg(Col("o_amount"), "t")})};
  QueryPlan q1{1, "b",
               b1.Aggregate(
                   b1.ScanFiltered("orders", Gt(Col("o_amount"), Lit(50.0))),
                   {"o_custkey"}, {SumAgg(Col("o_amount"), "t")})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  const PlanNodePtr& filt = merged[0].root->children[0];
  ASSERT_EQ(filt->kind, PlanKind::kFilter);
  ASSERT_EQ(filt->predicates.size(), 2u);
  EXPECT_EQ(filt->predicates.at(0).get(), filt->predicates.at(1).get());
}

TEST(MqoTest, ProjectUnionWidensSchema) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a",
               b0.Project(b0.ScanFiltered("orders", nullptr),
                          {{Col("o_custkey"), "o_custkey"}})};
  QueryPlan q1{1, "b",
               b1.Project(b1.ScanFiltered("orders", nullptr),
                          {{Col("o_amount"), "o_amount"}})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  EXPECT_EQ(merged[0].root.get(), merged[1].root.get());
  EXPECT_EQ(merged[0].root->projections.size(), 2u);
  EXPECT_EQ(merged[0].root->output_schema.num_fields(), 2);
}

TEST(MqoTest, ConflictingAliasesDoNotMerge) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a",
               b0.Project(b0.ScanFiltered("orders", nullptr),
                          {{Col("o_custkey"), "v"}})};
  QueryPlan q1{1, "b",
               b1.Project(b1.ScanFiltered("orders", nullptr),
                          {{Col("o_amount"), "v"}})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  EXPECT_NE(merged[0].root.get(), merged[1].root.get());
  // But the scan+filter below still merges.
  EXPECT_EQ(merged[0].root->children[0].get(),
            merged[1].root->children[0].get());
}

TEST(MqoTest, DifferentAggregatesDoNotMerge) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0), b1(&db.catalog, 1);
  QueryPlan q0{0, "a", b0.Aggregate(b0.ScanFiltered("orders", nullptr),
                                    {"o_custkey"},
                                    {SumAgg(Col("o_amount"), "t")})};
  QueryPlan q1{1, "b", b1.Aggregate(b1.ScanFiltered("orders", nullptr),
                                    {"o_custkey"},
                                    {MaxAgg(Col("o_amount"), "t")})};
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({q0, q1});
  EXPECT_NE(merged[0].root.get(), merged[1].root.get());
  EXPECT_EQ(merged[0].root->children[0].get(),
            merged[1].root->children[0].get());
}

TEST(MqoTest, JoinsMergeWhenKeysMatch) {
  TestDb db;
  auto mk = [&](QueryId qid, double threshold) {
    PlanBuilder b(&db.catalog, qid);
    return QueryPlan{
        qid, "q",
        b.Join(b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(threshold))),
               b.ScanFiltered("customer", nullptr), {"o_custkey"},
               {"c_custkey"})};
  };
  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  std::vector<QueryPlan> merged = mqo.Merge({mk(0, 10.0), mk(1, 90.0)});
  EXPECT_EQ(merged[0].root.get(), merged[1].root.get());
  SubplanGraph g = SubplanGraph::Build(merged);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(MqoTest, MergedPlanExecutesCorrectlyForBothQueries) {
  TestDb db(200, 10);
  auto mk = [&](QueryId qid, double threshold) {
    PlanBuilder b(&db.catalog, qid);
    return QueryPlan{
        qid, "q",
        b.Aggregate(
            b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(threshold))),
            {"o_custkey"}, {SumAgg(Col("o_amount"), "t")})};
  };
  std::vector<QueryPlan> queries = {mk(0, 30.0), mk(1, 70.0)};

  // Reference: run each query separately in one batch.
  std::vector<std::unordered_map<Row, int64_t, RowHasher>> ref;
  for (const QueryPlan& q : queries) {
    db.source.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &db.source);
    exec.Run({1}).value();
    ref.push_back(MaterializeResult(*exec.query_output(q.id), q.id));
  }

  MqoOptimizer mqo(&db.catalog, NoMatOptions());
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(queries));
  db.source.Reset();
  AdaptiveExecutor exec(&g, &db.source);
  exec.Run(PaceConfig(g.num_subplans(), 4)).value();
  for (QueryId q = 0; q < 2; ++q) {
    EXPECT_EQ(MaterializeResult(*exec.query_output(q), q), ref[q])
        << "query " << q;
  }
}

TEST(MqoTest, MaterializationCostCanRejectSharing) {
  TestDb db;
  // A shared bottom whose output is large relative to the work it saves:
  // a pass-through projection of the scan. The aggregates above differ so
  // the projection genuinely has two parents after merging.
  auto mk = [&](QueryId qid) {
    PlanBuilder b(&db.catalog, qid);
    AggSpec agg = qid == 0 ? SumAgg(Col("o_amount"), "t")
                           : MaxAgg(Col("o_amount"), "t");
    return QueryPlan{
        qid, "q",
        b.Aggregate(b.Project(b.ScanFiltered("orders", nullptr),
                              {{Col("o_custkey"), "o_custkey"},
                               {Col("o_amount"), "o_amount"}}),
                    {"o_custkey"}, {agg})};
  };
  MqoOptions expensive_mat;
  expensive_mat.account_materialization = true;
  expensive_mat.materialization_cost_per_tuple = 100.0;
  MqoOptimizer mqo(&db.catalog, expensive_mat);
  std::vector<QueryPlan> merged = mqo.Merge({mk(0), mk(1)});
  // With absurdly expensive materialization, nothing multi-parent remains
  // except scans (which are exempt as base buffers).
  SubplanGraph g = SubplanGraph::Build(merged);
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() > 1) {
      EXPECT_EQ(g.subplan(i).root->kind, PlanKind::kScan);
    }
  }
}

}  // namespace
}  // namespace ishare
