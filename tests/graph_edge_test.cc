// Edge cases for subplan-graph construction and the approach-specific
// graph shapes: blocking-operator cuts (NoShare-Nonuniform), within-query
// DAGs (Q17/Q15-style self-sharing), validation failure paths, and the
// executor's rational schedule when paces share event points.

#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/plan/builder.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

TEST(ExtraCutTest, BlockingOperatorsBecomeSubplanRoots) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  // agg -> filter -> agg chain: cutting at aggregates yields 2 subplans.
  PlanNodePtr inner = b.Aggregate(b.ScanFiltered("orders", nullptr),
                                  {"o_custkey"},
                                  {SumAgg(Col("o_amount"), "t")});
  PlanNodePtr root = b.Aggregate(b.Filter(inner, Gt(Col("t"), Lit(100.0))),
                                 {}, {CountAgg("n")});
  QueryPlan q{0, "chain", root};

  SubplanGraph plain = SubplanGraph::Build({q});
  EXPECT_EQ(plain.num_subplans(), 1);

  SubplanGraph cut = SubplanGraph::Build({q}, [](const PlanNode& n) {
    return n.kind == PlanKind::kAggregate;
  });
  EXPECT_EQ(cut.num_subplans(), 2);
  EXPECT_TRUE(cut.Validate().ok());
  // The child subplan's root is the inner aggregate.
  int child = cut.subplan(cut.query_root(0)).children[0];
  EXPECT_EQ(cut.subplan(child).root->kind, PlanKind::kAggregate);
}

TEST(ExtraCutTest, CutGraphExecutesEquivalently) {
  TestDb db(250, 8);
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr inner = b.Aggregate(b.ScanFiltered("orders", nullptr),
                                  {"o_custkey"},
                                  {SumAgg(Col("o_amount"), "t")});
  QueryPlan q{0, "chain",
              b.Aggregate(b.Filter(inner, Gt(Col("t"), Lit(100.0))), {},
                          {CountAgg("n")})};
  auto run = [&](const SubplanGraph& g, const PaceConfig& p) {
    db.source.Reset();
    AdaptiveExecutor exec(&g, &db.source);
    exec.Run(p).value();
    return MaterializeResult(*exec.query_output(0), 0);
  };
  SubplanGraph plain = SubplanGraph::Build({q});
  SubplanGraph cut = SubplanGraph::Build({q}, [](const PlanNode& n) {
    return n.kind == PlanKind::kAggregate;
  });
  auto ref = run(plain, PaceConfig(plain.num_subplans(), 1));
  EXPECT_EQ(run(cut, {1, 1}), ref);
  EXPECT_EQ(run(cut, {1, 8}), ref);  // lazy parent over eager child
}

TEST(WithinQueryDagTest, SelfSharedScanBecomesSharedSubplan) {
  // Q17-style: the same lineitem scan feeds the main join and the per-part
  // average subquery — a DAG inside one query.
  TpchDb db(TpchScale{0.002, 5});
  QueryPlan q = TpchQuery(db.catalog, 17, 0);
  MqoOptimizer mqo(&db.catalog);
  std::vector<QueryPlan> merged = mqo.Merge({q});
  SubplanGraph g = SubplanGraph::Build(merged);
  EXPECT_TRUE(g.Validate().ok());
  // Q17's two uses of lineitem come from the same parent subplan, so the
  // sharing shows up as two SubplanInput references (two buffer consumers),
  // not as two distinct parents.
  int buffer_refs = 0;
  for (int i = 0; i < g.num_subplans(); ++i) {
    std::vector<PlanNodePtr> nodes;
    CollectNodes(g.subplan(i).root, &nodes);
    for (const auto& n : nodes) {
      if (n->kind == PlanKind::kSubplanInput) ++buffer_refs;
    }
  }
  EXPECT_GE(buffer_refs, 2)
      << "Q17's two uses of lineitem should consume one shared buffer";
  EXPECT_GT(g.num_subplans(), 1);
}

TEST(ValidateTest, RejectsForeignLeafQueries) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "x",
              b.Aggregate(b.ScanFiltered("orders", nullptr), {"o_custkey"},
                          {CountAgg("n")})};
  SubplanGraph g = SubplanGraph::Build({q});
  ASSERT_TRUE(g.Validate().ok());
  // Corrupt an interior node's query set.
  g.mutable_subplan(0)->root->children[0]->queries = QuerySet::FromIds({0, 1});
  EXPECT_FALSE(g.Validate().ok());
}

TEST(ValidateTest, RejectsParentNotSubsumed) {
  TestDb db;
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "orders", both);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      scan, {"o_custkey"}, {SumAgg(Col("o_amount"), "t")}, both);
  PlanNodePtr r0 =
      PlanNode::MakeProject(agg, {{Col("t"), "t"}}, QuerySet::Single(0));
  PlanNodePtr r1 = PlanNode::MakeAggregate(agg, {}, {CountAgg("n")},
                                           QuerySet::Single(1));
  SubplanGraph g = SubplanGraph::Build(
      {QueryPlan{0, "a", r0}, QueryPlan{1, "b", r1}});
  ASSERT_TRUE(g.Validate().ok());
  // Shrink the shared child's query set below a parent's.
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) {
      std::vector<PlanNodePtr> nodes;
      CollectNodes(g.mutable_subplan(i)->root, &nodes);
      for (auto& n : nodes) n->queries = QuerySet::Single(0);
      g.RecomputeEdges();
    }
  }
  EXPECT_FALSE(g.Validate().ok());
}

TEST(ScheduleTest, OverlappingPacePointsExecuteOncePerSubplan) {
  // Paces 2 and 4 share the points 1/2 and 1: the pace-2 subplan must not
  // run twice at shared points.
  TestDb db(100, 5);
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "orders", both);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      scan, {"o_custkey"}, {SumAgg(Col("o_amount"), "t")}, both);
  PlanNodePtr r0 =
      PlanNode::MakeProject(agg, {{Col("t"), "t"}}, QuerySet::Single(0));
  PlanNodePtr r1 = PlanNode::MakeAggregate(agg, {}, {CountAgg("n")},
                                           QuerySet::Single(1));
  SubplanGraph g = SubplanGraph::Build(
      {QueryPlan{0, "a", r0}, QueryPlan{1, "b", r1}});
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) shared = i;
  }
  PaceConfig paces(g.num_subplans(), 2);
  paces[shared] = 4;
  db.source.Reset();
  AdaptiveExecutor exec(&g, &db.source);
  RunResult r = exec.Run(paces).value().run;
  EXPECT_EQ(r.subplans[shared].work_per_exec.size(), 4u);
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (i == shared) continue;
    EXPECT_EQ(r.subplans[i].work_per_exec.size(), 2u);
  }
}

TEST(ScheduleTest, CoprimePacesInterleave) {
  TestDb db(120, 5);
  PlanBuilder b(&db.catalog, 0);
  QueryPlan q{0, "x",
              b.Aggregate(b.ScanFiltered("orders", nullptr), {"o_custkey"},
                          {SumAgg(Col("o_amount"), "t")})};
  SubplanGraph g = SubplanGraph::Build({q});
  db.source.Reset();
  AdaptiveExecutor exec(&g, &db.source);
  RunResult r = exec.Run({7}).value().run;
  ASSERT_EQ(r.subplans[0].exec_fraction.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(r.subplans[0].exec_fraction[i], (i + 1) / 7.0, 1e-12);
  }
}

TEST(MqoDagTest, UnsharePassReachesFixpoint) {
  // With absurd materialization costs the DAG must fully unshare except
  // scans, even through nested shared nodes (project over filter).
  TestDb db;
  auto mk = [&](QueryId qid) {
    PlanBuilder b(&db.catalog, qid);
    AggSpec agg =
        qid == 0 ? SumAgg(Col("amt"), "t") : AvgAgg(Col("amt"), "t");
    return QueryPlan{
        qid, "q",
        b.Aggregate(
            b.Project(b.Filter(b.Project(b.ScanFiltered("orders", nullptr),
                                         {{Col("o_custkey"), "o_custkey"},
                                          {Col("o_amount"), "o_amount"}}),
                               Gt(Col("o_amount"), Lit(1.0))),
                      {{Col("o_custkey"), "ck"}, {Col("o_amount"), "amt"}}),
            {"ck"}, {agg})};
  };
  MqoOptions opts;
  opts.materialization_cost_per_tuple = 1000.0;
  MqoOptimizer mqo(&db.catalog, opts);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({mk(0), mk(1)}));
  ASSERT_TRUE(g.Validate().ok());
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() > 1) {
      EXPECT_EQ(g.subplan(i).root->kind, PlanKind::kScan);
    }
  }
}

TEST(CloneRestrictedTest, PreservesSchemasAndStructure) {
  TpchDb db(TpchScale{0.002, 5});
  QueryPlan q5 = TpchQuery(db.catalog, 5, 0);
  QueryPlan q5v = TpchQuery(db.catalog, 5, 1, /*variant=*/true);
  MqoOptimizer mqo(&db.catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({q5, q5v}));
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() < 2) continue;
    PlanNodePtr clone =
        PlanNode::CloneRestricted(g.subplan(i).root, QuerySet::Single(0));
    EXPECT_EQ(clone->output_schema, g.subplan(i).root->output_schema);
    EXPECT_EQ(CountOperators(clone), CountOperators(g.subplan(i).root));
  }
}

}  // namespace
}  // namespace ishare
