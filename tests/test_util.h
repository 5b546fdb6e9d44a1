#ifndef ISHARE_TESTS_TEST_UTIL_H_
#define ISHARE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/common/rng.h"
#include "ishare/cost/estimator.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/plan/builder.h"
#include "ishare/plan/subplan_graph.h"
#include "ishare/shard/partitioner.h"
#include "ishare/storage/stream_source.h"
#include "ishare/workload/tpch_queries.h"

namespace ishare {

// A small deterministic sales dataset used across engine tests:
//   orders(o_id, o_custkey, o_amount)
//   customer(c_custkey, c_region)
// With `retractions` the orders stream also deletes and updates rows
// (RetractingOrders); the rows inserted, and the catalog, stay the same.
class TestDb {
 public:
  explicit TestDb(int n_orders = 60, int n_customers = 10, uint64_t seed = 42,
                  bool retractions = false) {
    Rng rng(seed);
    Schema orders({{"o_id", DataType::kInt64},
                   {"o_custkey", DataType::kInt64},
                   {"o_amount", DataType::kFloat64}});
    Schema customer(
        {{"c_custkey", DataType::kInt64}, {"c_region", DataType::kString}});

    std::vector<Row> order_rows;
    for (int i = 0; i < n_orders; ++i) {
      order_rows.push_back({Value(int64_t{i}),
                            Value(rng.UniformInt(0, n_customers - 1)),
                            Value(rng.UniformDouble(1.0, 100.0))});
    }
    std::vector<Row> customer_rows;
    const char* regions[] = {"ASIA", "EUROPE", "AMERICA"};
    for (int i = 0; i < n_customers; ++i) {
      customer_rows.push_back(
          {Value(int64_t{i}), Value(std::string(regions[i % 3]))});
    }

    CHECK(catalog
              .AddTable("orders", orders,
                        ComputeTableStats(orders, order_rows))
              .ok());
    CHECK(catalog
              .AddTable("customer", customer,
                        ComputeTableStats(customer, customer_rows))
              .ok());
    if (retractions) {
      source.AddTableDeltas("orders", orders,
                            RetractingOrders(order_rows, seed));
    } else {
      source.AddTable("orders", orders, std::move(order_rows));
    }
    source.AddTable("customer", customer, std::move(customer_rows));
  }

  // The orders stream of a retracting TestDb: every order is inserted in
  // id order, and kRetractLag inserts later every 5th order is deleted and
  // every 7th other one updated (-1, then +1 with a new amount). Deletes
  // then reach join buckets and aggregate groups throughout the window.
  static std::vector<DeltaTuple> RetractingOrders(const std::vector<Row>& rows,
                                                  uint64_t seed) {
    constexpr size_t kRetractLag = 16;
    Rng rng(seed ^ 0x5eedULL);
    std::vector<DeltaTuple> out;
    auto retract = [&](size_t j) {
      if (j % 5 != 0 && j % 7 != 0) return;
      out.emplace_back(rows[j], QuerySet(), -1);
      if (j % 5 == 0) return;
      Row updated = rows[j];
      updated[2] = Value(rng.UniformDouble(1.0, 100.0));
      out.emplace_back(std::move(updated), QuerySet(), 1);
    };
    for (size_t i = 0; i < rows.size(); ++i) {
      out.emplace_back(rows[i], QuerySet(), 1);
      if (i >= kRetractLag) retract(i - kRetractLag);
    }
    for (size_t j = rows.size() - std::min(rows.size(), kRetractLag);
         j < rows.size(); ++j) {
      retract(j);
    }
    return out;
  }

  Catalog catalog;
  StreamSource source;
};

// The shared DAG engine tests use everywhere: an aggregate feeding two
// query roots (3 subplans), giving multi-consumer buffers and a step
// schedule with both shared and private event points.
//   q0: SELECT o_custkey, SUM(o_amount) FROM orders GROUP BY o_custkey
//   q1: SELECT MAX(total) over the same aggregate, restricted to
//       amount > 50.
inline std::vector<QueryPlan> MakeSharedDag(const Catalog& catalog) {
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
      agg, {}, {MaxAgg(Col("total"), "max_total")}, QuerySet::Single(1));
  return {QueryPlan{0, "q0", root0}, QueryPlan{1, "q1", root1}};
}

// Zero slack for q0, ample slack for q1 of MakeSharedDag: the chaos
// harness's protective invariant has something to protect, shedding has
// somewhere legal to land.
inline std::vector<double> TightLooseConstraints(CostEstimator* est,
                                                 const PaceConfig& paces) {
  PlanCost cost = est->Estimate(paces);
  return {cost.query_final_work[0], 10.0 * cost.query_final_work[1]};
}

// Deterministic query family of arrangement-eligible shapes: bare scans
// feeding joins/aggregates, so every operator is a candidate reader. No
// MQO merge — each query stays its own subplan, and the ONLY sharing in
// an arranged run flows through the catalog.
inline QueryPlan MakeArrangeQuery(const Catalog& catalog, QueryId q,
                                  int shape) {
  PlanBuilder b(&catalog, q);
  PlanNodePtr root;
  switch (shape % 4) {
    case 0:
      root = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                         {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
      break;
    case 1:
      root = b.Join(b.Scan("orders"), b.Scan("customer"), {"o_custkey"},
                    {"c_custkey"});
      break;
    case 2:
      root = b.Aggregate(b.Scan("customer"), {"c_region"}, {CountAgg("n")});
      break;
    default:
      root = b.Aggregate(b.Scan("orders"), {},
                         {MinAgg(Col("o_amount"), "lo"),
                          MaxAgg(Col("o_amount"), "hi")});
      break;
  }
  return QueryPlan{q, "aq" + std::to_string(q), root};
}

// One random workload of the arranged-vs-private property and the
// equivalence digest, over TestDb(200, 12, 7): 2-4 MakeArrangeQuery
// queries of random shapes, each its own subplan, at random paces in
// [1, 4] (distinct paces put a shared arrangement's readers at different
// versions), all drawn from Rng(seed); every 4th seed runs on 4 threads.
struct ArrangeWorkload {
  SubplanGraph graph;
  PaceConfig paces;
  int threads = 1;
};

inline ArrangeWorkload MakeArrangeWorkload(const Catalog& catalog, int seed) {
  Rng rng(static_cast<uint64_t>(seed));
  int nq = static_cast<int>(2 + rng.UniformInt(0, 2));
  std::vector<QueryPlan> qs;
  for (int q = 0; q < nq; ++q) {
    qs.push_back(
        MakeArrangeQuery(catalog, q, static_cast<int>(rng.UniformInt(0, 3))));
  }
  ArrangeWorkload out;
  out.graph = SubplanGraph::Build(qs);
  out.paces.resize(static_cast<size_t>(out.graph.num_subplans()));
  for (int& p : out.paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
  out.threads = (seed % 4 == 0) ? 4 : 1;
  return out;
}

// One random shared TPC-H plan of the scheduler property and the
// equivalence digest: 2-4 random queries of the 22, merged by MQO, with
// every subplan at a random pace in [1, 4], all drawn from Rng(seed).
struct RandomSharedPlan {
  SubplanGraph graph;
  PaceConfig paces;
};

inline RandomSharedPlan MakeRandomSharedPlan(const Catalog& catalog,
                                             int seed) {
  Rng rng(static_cast<uint64_t>(seed));
  int nq = static_cast<int>(2 + rng.UniformInt(0, 2));
  std::vector<QueryPlan> qs;
  for (int q = 0; q < nq; ++q) {
    int qnum = static_cast<int>(1 + rng.UniformInt(0, 21));
    qs.push_back(TpchQuery(catalog, qnum, q));
  }
  RandomSharedPlan out;
  out.graph = SubplanGraph::Build(MqoOptimizer(&catalog).Merge(qs));
  out.paces.resize(static_cast<size_t>(out.graph.num_subplans()));
  for (int& p : out.paces) p = static_cast<int>(1 + rng.UniformInt(0, 3));
  return out;
}

// Shard-friendly query family over TestDb: group-by keys aligned with the
// partition key (the co-partitioning contract), so sharded merges are
// disjoint unions.
inline std::vector<QueryPlan> MakeShardQueries(const Catalog& catalog) {
  std::vector<QueryPlan> plans;
  {
    PlanBuilder b(&catalog, 0);
    PlanNodePtr orders =
        b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0)));
    plans.push_back({0, "shard_q0",
                     b.Aggregate(orders, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "total"),
                                  CountAgg("n")})});
  }
  {
    PlanBuilder b(&catalog, 1);
    PlanNodePtr orders = b.ScanFiltered("orders", nullptr);
    PlanNodePtr cust = b.ScanFiltered("customer", nullptr);
    PlanNodePtr join = b.Join(orders, cust, {"o_custkey"}, {"c_custkey"});
    plans.push_back({1, "shard_q1",
                     b.Aggregate(join, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "amt")})});
  }
  return plans;
}

// Both TestDb tables partitioned on the customer key.
inline shard::ShardPlan CoPartitioned() {
  shard::ShardPlan plan;
  plan.keys = {{"orders", "o_custkey"}, {"customer", "c_custkey"}};
  return plan;
}

// Compares two materialized results with a relative tolerance on doubles:
// incremental execution accumulates floating-point sums in a different
// order than batch execution, so bit-exact comparison is too strict.
inline bool RowsNear(const Row& a, const Row& b, double tol = 1e-6) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_string() || b[i].is_string() ||
        (a[i].is_int() && b[i].is_int())) {
      if (!(a[i] == b[i])) return false;
    } else {
      double x = a[i].AsDouble(), y = b[i].AsDouble();
      double scale = std::max({1.0, std::abs(x), std::abs(y)});
      if (std::abs(x - y) > tol * scale) return false;
    }
  }
  return true;
}

inline ::testing::AssertionResult ResultsNear(
    const std::unordered_map<Row, int64_t, RowHasher>& a,
    const std::unordered_map<Row, int64_t, RowHasher>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.size() << " vs " << b.size();
  }
  std::vector<std::pair<Row, int64_t>> unmatched(b.begin(), b.end());
  for (const auto& [row, count] : a) {
    bool found = false;
    for (size_t i = 0; i < unmatched.size(); ++i) {
      if (unmatched[i].second == count && RowsNear(row, unmatched[i].first)) {
        unmatched[i] = unmatched.back();
        unmatched.pop_back();
        found = true;
        break;
      }
    }
    if (!found) {
      return ::testing::AssertionFailure()
             << "no match for row " << RowToString(row) << " x" << count;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ishare

#endif  // ISHARE_TESTS_TEST_UTIL_H_
