#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

// One shared tiny dataset for the whole file (generation is not free).
TpchDb* Db() {
  static TpchDb* db = new TpchDb(TpchScale{0.005, 7});
  return db;
}

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

ResultMap RunOne(const QueryPlan& q, int pace) {
  Db()->Reset();
  SubplanGraph g = SubplanGraph::Build({q});
  AdaptiveExecutor exec(&g, &Db()->source);
  exec.Run(PaceConfig(g.num_subplans(), pace)).value();
  return MaterializeResult(*exec.query_output(q.id), q.id);
}

TEST(TpchDataTest, TablesHaveExpectedShape) {
  const Catalog& cat = Db()->catalog;
  EXPECT_TRUE(cat.HasTable("lineitem"));
  EXPECT_TRUE(cat.HasTable("orders"));
  EXPECT_EQ(cat.GetStats("region").row_count, 5);
  EXPECT_EQ(cat.GetStats("nation").row_count, 25);
  EXPECT_GT(cat.GetStats("lineitem").row_count,
            cat.GetStats("orders").row_count);
  EXPECT_EQ(cat.GetStats("partsupp").row_count,
            4 * cat.GetStats("part").row_count);
}

TEST(TpchDataTest, DateEncoding) {
  EXPECT_EQ(TpchDate(1992, 1, 1), 0);
  EXPECT_EQ(TpchDate(1992, 2, 1), 31);
  EXPECT_EQ(TpchDate(1993, 1, 1), 365);
  EXPECT_LT(TpchDate(1995, 3, 15), TpchDate(1995, 9, 15));
}

TEST(TpchDataTest, StatsMatchGeneratedDomains) {
  const TableStats& part = Db()->catalog.GetStats("part");
  EXPECT_LE(part.Column("p_brand")->ndv, 25);
  EXPECT_GE(part.Column("p_size")->min, 1);
  EXPECT_LE(part.Column("p_size")->max, 50);
  const TableStats& li = Db()->catalog.GetStats("lineitem");
  EXPECT_GE(li.Column("l_discount")->min, 0.0);
  EXPECT_LE(li.Column("l_discount")->max, 0.101);
}

// Every TPC-H query builds, validates, runs in batch mode and produces the
// same result incrementally — the workload-level engine invariant.
class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, BuildsAndValidates) {
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0);
  ASSERT_NE(q.root, nullptr);
  SubplanGraph g = SubplanGraph::Build({q});
  EXPECT_TRUE(g.Validate().ok()) << g.ToString();
}

TEST_P(TpchQueryTest, IncrementalMatchesBatch) {
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0);
  ResultMap batch = RunOne(q, 1);
  ResultMap inc = RunOne(q, 5);
  EXPECT_TRUE(ResultsNear(inc, batch)) << q.name;
}

TEST_P(TpchQueryTest, BatchResultNonTrivial) {
  // Every query should produce at least one result row on the test data
  // (predicates were checked against the generator's domains).
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0);
  ResultMap batch = RunOne(q, 1);
  EXPECT_GT(batch.size(), 0u) << q.name << " produced no rows";
}

TEST_P(TpchQueryTest, VariantBuildsAndRuns) {
  QueryPlan q = TpchQuery(Db()->catalog, GetParam(), 0, /*variant=*/true);
  ResultMap batch = RunOne(q, 1);
  ResultMap inc = RunOne(q, 3);
  EXPECT_TRUE(ResultsNear(inc, batch)) << q.name;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryTest,
                         ::testing::Range(1, 23));

TEST(TpchWorkloadTest, PaperQueriesShareTheFig2Structure) {
  QueryPlan qa = PaperQueryA(Db()->catalog, 0);
  QueryPlan qb = PaperQueryB(Db()->catalog, 1);
  MqoOptimizer mqo(&Db()->catalog);
  std::vector<QueryPlan> merged = mqo.Merge({qa, qb});
  SubplanGraph g = SubplanGraph::Build(merged);
  ASSERT_TRUE(g.Validate().ok());
  // The part ⋈ agg(lineitem) join must be shared by both queries.
  bool found_shared_join = false;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() == 2) found_shared_join = true;
  }
  EXPECT_TRUE(found_shared_join);
}

TEST(TpchWorkloadTest, PaperQueriesExecuteEquivalently) {
  QueryPlan qa = PaperQueryA(Db()->catalog, 0);
  QueryPlan qb = PaperQueryB(Db()->catalog, 1);
  ResultMap ra = RunOne(qa, 1);
  ResultMap rb = RunOne(qb, 1);
  EXPECT_EQ(ra.size(), 1u);  // single global sum

  MqoOptimizer mqo(&Db()->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge({qa, qb}));
  Db()->Reset();
  AdaptiveExecutor exec(&g, &Db()->source);
  exec.Run(PaceConfig(g.num_subplans(), 3)).value();
  EXPECT_TRUE(ResultsNear(MaterializeResult(*exec.query_output(0), 0), ra));
  EXPECT_TRUE(ResultsNear(MaterializeResult(*exec.query_output(1), 1), rb));
}

TEST(TpchWorkloadTest, MergedFullWorkloadMatchesStandalone) {
  std::vector<QueryPlan> queries = AllTpchQueries(Db()->catalog);
  std::vector<ResultMap> ref;
  ref.reserve(queries.size());
  for (const QueryPlan& q : queries) ref.push_back(RunOne(q, 1));

  MqoOptimizer mqo(&Db()->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(queries));
  ASSERT_TRUE(g.Validate().ok());
  Db()->Reset();
  AdaptiveExecutor exec(&g, &Db()->source);
  exec.Run(PaceConfig(g.num_subplans(), 2)).value();
  for (const QueryPlan& q : queries) {
    EXPECT_TRUE(
        ResultsNear(MaterializeResult(*exec.query_output(q.id), q.id),
                    ref[q.id]))
        << q.name;
  }
}

TEST(TpchWorkloadTest, SharingFriendlySetSharesSubplans) {
  std::vector<QueryPlan> queries = SharingFriendlyQueries(Db()->catalog);
  EXPECT_EQ(queries.size(), 10u);
  MqoOptimizer mqo(&Db()->catalog);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(queries));
  int shared = 0;
  for (int i = 0; i < g.num_subplans(); ++i) {
    if (g.subplan(i).queries.size() >= 2) ++shared;
  }
  EXPECT_GT(shared, 0) << "sharing-friendly queries found no sharing";
}

TEST(TpchWorkloadTest, DecompositionWorkloadHasVariantPairs) {
  std::vector<QueryPlan> queries = DecompositionWorkload(Db()->catalog);
  EXPECT_EQ(queries.size(), 20u);
  EXPECT_EQ(queries[10].name, queries[0].name + "v");
}

}  // namespace
}  // namespace ishare
