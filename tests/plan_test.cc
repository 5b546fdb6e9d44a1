#include <gtest/gtest.h>

#include "ishare/plan/builder.h"
#include "ishare/plan/subplan_graph.h"
#include "test_util.h"

namespace ishare {
namespace {

TEST(PlanBuilderTest, ScanSchemaFromCatalog) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr scan = b.Scan("orders");
  EXPECT_EQ(scan->kind, PlanKind::kScan);
  EXPECT_EQ(scan->output_schema.num_fields(), 3);
  EXPECT_EQ(scan->queries, QuerySet::Single(0));
}

TEST(PlanBuilderTest, FilterKeepsSchema) {
  TestDb db;
  PlanBuilder b(&db.catalog, 1);
  PlanNodePtr f = b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0)));
  EXPECT_EQ(f->kind, PlanKind::kFilter);
  EXPECT_EQ(f->output_schema.num_fields(), 3);
  ASSERT_EQ(f->predicates.count(1), 1u);
}

TEST(PlanBuilderTest, ProjectSchemaFromAliases) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr p = b.Project(b.Scan("orders"),
                            {{Mul(Col("o_amount"), Lit(2.0)), "double_amt"},
                             {Col("o_custkey"), "o_custkey"}});
  EXPECT_EQ(p->output_schema.num_fields(), 2);
  EXPECT_EQ(p->output_schema.field(0).name, "double_amt");
  EXPECT_EQ(p->output_schema.field(0).type, DataType::kFloat64);
}

TEST(PlanBuilderTest, JoinSchemaConcat) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr j = b.Join(b.Scan("orders"), b.Scan("customer"), {"o_custkey"},
                         {"c_custkey"});
  EXPECT_EQ(j->output_schema.num_fields(), 5);
}

TEST(PlanBuilderTest, SemiJoinKeepsLeftSchema) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr j = b.Join(b.Scan("customer"), b.Scan("orders"), {"c_custkey"},
                         {"o_custkey"}, JoinType::kLeftSemi);
  EXPECT_EQ(j->output_schema.num_fields(), 2);
}

TEST(PlanBuilderTest, AggregateSchema) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr a = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                              {SumAgg(Col("o_amount"), "total"),
                               CountAgg("cnt"),
                               AvgAgg(Col("o_amount"), "avg_amt")});
  EXPECT_EQ(a->output_schema.num_fields(), 4);
  EXPECT_EQ(a->output_schema.field(1).type, DataType::kFloat64);  // total
  EXPECT_EQ(a->output_schema.field(2).type, DataType::kInt64);    // cnt
  EXPECT_EQ(a->output_schema.field(3).type, DataType::kFloat64);  // avg
}

TEST(SignatureTest, StructSignatureIgnoresPredicates) {
  TestDb db;
  PlanBuilder b0(&db.catalog, 0);
  PlanBuilder b1(&db.catalog, 1);
  PlanNodePtr a = b0.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0)));
  PlanNodePtr b = b1.ScanFiltered("orders", Lt(Col("o_amount"), Lit(5.0)));
  EXPECT_EQ(a->StructSignature(), b->StructSignature());
  EXPECT_NE(a->FullSignature(), b->FullSignature());
}

TEST(SignatureTest, DifferentAggregatesDoNotMatch) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr s1 = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                               {SumAgg(Col("o_amount"), "x")});
  PlanNodePtr s2 = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                               {MaxAgg(Col("o_amount"), "x")});
  EXPECT_NE(s1->StructSignature(), s2->StructSignature());
}

// MakeSharedDag (test_util.h) is the paper's Fig. 2-style shared DAG:
//   shared  = Aggregate(Filter(Scan(orders)))           queries {0,1}
//   q0 root = Project(shared)                           queries {0}
//   q1 root = Aggregate(shared)                         queries {1}

TEST(SubplanGraphTest, CutsAtMultiParentNodes) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  ASSERT_EQ(g.num_subplans(), 3);
  ASSERT_TRUE(g.Validate().ok());

  // Identify the shared subplan: it has two parents.
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) shared = i;
  }
  ASSERT_GE(shared, 0);
  EXPECT_EQ(g.subplan(shared).queries, QuerySet::FromIds({0, 1}));
  EXPECT_TRUE(g.subplan(shared).IsSharedBuffer());

  int r0 = g.query_root(0);
  int r1 = g.query_root(1);
  EXPECT_NE(r0, r1);
  EXPECT_EQ(g.subplan(r0).queries, QuerySet::Single(0));
  EXPECT_EQ(g.subplan(r1).queries, QuerySet::Single(1));
  EXPECT_EQ(g.subplan(r0).children, std::vector<int>{shared});
  EXPECT_EQ(g.subplan(r1).children, std::vector<int>{shared});
}

TEST(SubplanGraphTest, SingleQueryIsOneSubplan) {
  TestDb db;
  PlanBuilder b(&db.catalog, 0);
  PlanNodePtr root = b.Aggregate(
      b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(1.0))), {"o_custkey"},
      {SumAgg(Col("o_amount"), "t")});
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "q", root}});
  EXPECT_EQ(g.num_subplans(), 1);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.query_root(0), 0);
  EXPECT_EQ(g.subplan(0).root_of, QuerySet::Single(0));
}

TEST(SubplanGraphTest, TopoOrders) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  std::vector<int> cf = g.TopoChildrenFirst();
  std::vector<int> pos(g.num_subplans());
  for (int i = 0; i < g.num_subplans(); ++i) pos[cf[i]] = i;
  for (int i = 0; i < g.num_subplans(); ++i) {
    for (int c : g.subplan(i).children) {
      EXPECT_LT(pos[c], pos[i]) << "child must precede parent";
    }
  }
}

TEST(SubplanGraphTest, SubplansOfQuery) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  EXPECT_EQ(g.SubplansOfQuery(0).size(), 2u);
  EXPECT_EQ(g.SubplansOfQuery(1).size(), 2u);
}

TEST(SubplanGraphTest, BuildCopiesNodes) {
  TestDb db;
  std::vector<QueryPlan> dag = MakeSharedDag(db.catalog);
  SubplanGraph g1 = SubplanGraph::Build(dag);
  SubplanGraph g2 = SubplanGraph::Build(dag);
  // Mutating g1's trees must not affect g2 (deep copies).
  g1.mutable_subplan(0)->root->table_name = "mutated";
  bool any_mutated = false;
  for (int i = 0; i < g2.num_subplans(); ++i) {
    std::vector<PlanNodePtr> nodes;
    CollectNodes(g2.subplan(i).root, &nodes);
    for (const auto& n : nodes) {
      if (n->table_name == "mutated") any_mutated = true;
    }
  }
  EXPECT_FALSE(any_mutated);
}

TEST(CloneRestrictedTest, DropsOtherQueriesPredicates) {
  TestDb db;
  std::vector<QueryPlan> dag = MakeSharedDag(db.catalog);
  SubplanGraph g = SubplanGraph::Build(dag);
  int shared = -1;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).parents.size() == 2) shared = i;
  }
  PlanNodePtr clone =
      PlanNode::CloneRestricted(g.subplan(shared).root, QuerySet::Single(0));
  std::vector<PlanNodePtr> nodes;
  CollectNodes(clone, &nodes);
  for (const auto& n : nodes) {
    EXPECT_EQ(n->queries, QuerySet::Single(0));
    if (n->kind == PlanKind::kFilter) {
      EXPECT_EQ(n->predicates.count(1), 0u);  // q1's marking select dropped
    }
  }
}

}  // namespace
}  // namespace ishare
