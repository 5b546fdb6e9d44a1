#ifndef ISHARE_TESTS_TEST_UTIL_H_
#define ISHARE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/common/rng.h"
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
class TestDb {
 public:
  explicit TestDb(int n_orders = 60, int n_customers = 10, uint64_t seed = 42) {
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
    source.AddTable("orders", orders, std::move(order_rows));
    source.AddTable("customer", customer, std::move(customer_rows));
  }

  Catalog catalog;
  StreamSource source;
};

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
