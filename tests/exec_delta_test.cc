// Tests for insert/delete/update streams on base tables (Sec. 2.3): the
// engine must converge to the correct net result under any pace, with
// retractions flowing through filters, joins and aggregates.

#include <gtest/gtest.h>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/plan/builder.h"
#include "test_util.h"

namespace ishare {
namespace {

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

Row R2(int64_t k, double v) { return Row{Value(k), Value(v)}; }

// A stream of inserts with interleaved deletes and updates.
class DeltaStreamFixture : public ::testing::Test {
 protected:
  DeltaStreamFixture() {
    schema_ = Schema({{"k", DataType::kInt64}, {"v", DataType::kFloat64}});
    Rng rng(5);
    std::vector<DeltaTuple> deltas;
    std::vector<Row> live;
    for (int i = 0; i < 400; ++i) {
      double roll = rng.UniformDouble();
      if (roll < 0.7 || live.size() < 4) {
        Row r = R2(rng.UniformInt(0, 9), rng.UniformDouble(0, 100));
        live.push_back(r);
        deltas.emplace_back(std::move(r), QuerySet(), 1);
      } else if (roll < 0.85) {
        // Delete a random live row.
        size_t idx = rng.UniformInt(0, live.size() - 1);
        deltas.emplace_back(live[idx], QuerySet(), -1);
        live[idx] = live.back();
        live.pop_back();
      } else {
        // Update: delete + insert with a new value.
        size_t idx = rng.UniformInt(0, live.size() - 1);
        deltas.emplace_back(live[idx], QuerySet(), -1);
        Row fresh = R2(live[idx][0].AsInt(), rng.UniformDouble(0, 100));
        live[idx] = fresh;
        deltas.emplace_back(std::move(fresh), QuerySet(), 1);
      }
    }
    live_rows_ = live;
    CHECK(catalog_
              .AddTable("facts", schema_,
                        ComputeTableStats(schema_, live))
              .ok());
    source_.AddTableDeltas("facts", schema_, std::move(deltas));
  }

  ResultMap Run(const QueryPlan& q, int pace) {
    source_.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &source_);
    exec.Run(PaceConfig(g.num_subplans(), pace)).value();
    return MaterializeResult(*exec.query_output(q.id), q.id);
  }

  Schema schema_;
  std::vector<Row> live_rows_;
  Catalog catalog_;
  StreamSource source_;
};

TEST_F(DeltaStreamFixture, ScanNetsOutToLiveRows) {
  PlanBuilder b(&catalog_, 0);
  QueryPlan q{0, "scan", b.ScanFiltered("facts", nullptr)};
  ResultMap res = Run(q, 1);
  ResultMap expect;
  for (const Row& r : live_rows_) expect[r] += 1;
  EXPECT_EQ(res, expect);
}

TEST_F(DeltaStreamFixture, SumPerKeyConvergesUnderAnyPace) {
  PlanBuilder b(&catalog_, 0);
  QueryPlan q{0, "sum",
              b.Aggregate(b.ScanFiltered("facts", nullptr), {"k"},
                          {SumAgg(Col("v"), "s"), CountAgg("c")})};
  ResultMap batch = Run(q, 1);
  for (int pace : {2, 3, 7, 13}) {
    EXPECT_TRUE(ResultsNear(Run(q, pace), batch)) << "pace " << pace;
  }
  // Cross-check the count column against live rows.
  std::map<int64_t, int64_t> counts;
  for (const Row& r : live_rows_) counts[r[0].AsInt()] += 1;
  int64_t total_from_result = 0;
  for (const auto& [row, mult] : batch) total_from_result += row[2].AsInt();
  int64_t total_live = 0;
  for (const auto& [k, c] : counts) total_live += c;
  EXPECT_EQ(total_from_result, total_live);
}

TEST_F(DeltaStreamFixture, MinMaxSurviveDeletesOfExtrema) {
  PlanBuilder b(&catalog_, 0);
  QueryPlan q{0, "minmax",
              b.Aggregate(b.ScanFiltered("facts", nullptr), {"k"},
                          {MaxAgg(Col("v"), "mx"), MinAgg(Col("v"), "mn")})};
  ResultMap batch = Run(q, 1);
  EXPECT_TRUE(ResultsNear(Run(q, 11), batch));
  // Validate against a direct computation.
  std::map<int64_t, std::pair<double, double>> ref;
  for (const Row& r : live_rows_) {
    auto [it, fresh] = ref.try_emplace(r[0].AsInt(),
                                       std::make_pair(r[1].AsDouble(),
                                                      r[1].AsDouble()));
    if (!fresh) {
      it->second.first = std::max(it->second.first, r[1].AsDouble());
      it->second.second = std::min(it->second.second, r[1].AsDouble());
    }
  }
  EXPECT_EQ(batch.size(), ref.size());
  for (const auto& [row, mult] : batch) {
    auto it = ref.find(row[0].AsInt());
    ASSERT_NE(it, ref.end());
    EXPECT_DOUBLE_EQ(row[1].AsDouble(), it->second.first);
    EXPECT_DOUBLE_EQ(row[2].AsDouble(), it->second.second);
  }
}

TEST_F(DeltaStreamFixture, FilteredAggUnderChurn) {
  PlanBuilder b(&catalog_, 0);
  QueryPlan q{0, "filtered",
              b.Aggregate(b.ScanFiltered("facts", Gt(Col("v"), Lit(50.0))),
                          {"k"}, {CountAgg("c")})};
  ResultMap batch = Run(q, 1);
  EXPECT_TRUE(ResultsNear(Run(q, 9), batch));
}

TEST_F(DeltaStreamFixture, SelfJoinStyleSharedScanUnderChurn) {
  // Two aggregates over the same scan (a within-query DAG) must both
  // converge when the base stream retracts rows.
  PlanBuilder b(&catalog_, 0);
  PlanNodePtr scan = b.ScanFiltered("facts", nullptr);
  PlanNodePtr per_key =
      b.Aggregate(scan, {"k"}, {SumAgg(Col("v"), "s")});
  PlanNodePtr global = b.Project(
      b.Aggregate(scan, {}, {SumAgg(Col("v"), "total")}),
      {{Mul(Col("total"), Lit(0.5)), "half_total"}});
  PlanNodePtr cross = b.Join(per_key, global, {}, {});
  QueryPlan q{0, "dag", b.Filter(cross, Gt(Col("s"), Col("half_total")))};
  ResultMap batch = Run(q, 1);
  EXPECT_TRUE(ResultsNear(Run(q, 6), batch));
}

TEST(DeltaJoinTest, JoinRetractsAcrossTables) {
  Schema left({{"k", DataType::kInt64}, {"lv", DataType::kInt64}});
  Schema right({{"k2", DataType::kInt64}, {"rv", DataType::kInt64}});
  Catalog catalog;
  CHECK(catalog.AddTable("l", left, TableStats()).ok());
  CHECK(catalog.AddTable("r", right, TableStats()).ok());
  StreamSource source;
  // Left: insert (1, 10), (2, 20); delete (1, 10) mid-stream.
  std::vector<DeltaTuple> ld;
  ld.emplace_back(Row{Value(int64_t{1}), Value(int64_t{10})}, QuerySet(), 1);
  ld.emplace_back(Row{Value(int64_t{2}), Value(int64_t{20})}, QuerySet(), 1);
  ld.emplace_back(Row{Value(int64_t{1}), Value(int64_t{10})}, QuerySet(), -1);
  ld.emplace_back(Row{Value(int64_t{2}), Value(int64_t{21})}, QuerySet(), 1);
  source.AddTableDeltas("l", left, std::move(ld));
  std::vector<DeltaTuple> rd;
  rd.emplace_back(Row{Value(int64_t{1}), Value(int64_t{100})}, QuerySet(), 1);
  rd.emplace_back(Row{Value(int64_t{2}), Value(int64_t{200})}, QuerySet(), 1);
  source.AddTableDeltas("r", right, std::move(rd));

  PlanBuilder b(&catalog, 0);
  QueryPlan q{0, "join",
              b.Join(b.ScanFiltered("l", nullptr),
                     b.ScanFiltered("r", nullptr), {"k"}, {"k2"})};
  for (int pace : {1, 2, 4}) {
    source.Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &source);
    exec.Run(PaceConfig(g.num_subplans(), pace)).value();
    auto res = MaterializeResult(*exec.query_output(0), 0);
    // Only key 2 survives: two left rows x one right row.
    EXPECT_EQ(res.size(), 2u) << "pace " << pace;
    for (const auto& [row, mult] : res) {
      EXPECT_EQ(row[0].AsInt(), 2);
      EXPECT_EQ(mult, 1);
    }
  }
}

}  // namespace
}  // namespace ishare
