// Semantic spot checks: a handful of TPC-H queries are recomputed directly
// from the raw generated rows (independent reference implementations) and
// compared against the engine's results. This validates the *query
// definitions* — join keys, predicates, aggregate arguments — not just the
// engine's incremental/batch equivalence.

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

class TpchSemantics : public ::testing::Test {
 protected:
  static TpchDb* Db() {
    static TpchDb* db = new TpchDb(TpchScale{0.004, 17});
    return db;
  }

  // Raw rows of a base table (reads the fully released stream).
  static std::vector<Row> Rows(const std::string& table) {
    Db()->Reset();
    CHECK(Db()->source.AdvanceToStep(1, 1).ok());
    std::vector<Row> out;
    for (const DeltaTuple& t : Db()->source.buffer(table)->log()) {
      out.push_back(t.row);
    }
    return out;
  }

  static int Idx(const std::string& table, const std::string& col) {
    return Db()->catalog.GetSchema(table).IndexOfOrDie(col);
  }

  static std::unordered_map<Row, int64_t, RowHasher> RunQuery(
      const QueryPlan& q) {
    Db()->Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, &Db()->source);
    exec.Run(PaceConfig(g.num_subplans(), 1)).value();
    return MaterializeResult(*exec.query_output(q.id), q.id);
  }
};

TEST_F(TpchSemantics, Q6RevenueMatchesDirectComputation) {
  std::vector<Row> li = Rows("lineitem");
  int ship = Idx("lineitem", "l_shipdate");
  int disc = Idx("lineitem", "l_discount");
  int qty = Idx("lineitem", "l_quantity");
  int price = Idx("lineitem", "l_extendedprice");
  double expect = 0;
  int64_t lo = TpchDate(1994, 1, 1), hi = TpchDate(1995, 1, 1);
  for (const Row& r : li) {
    int64_t d = r[ship].AsInt();
    double dc = r[disc].AsDouble();
    if (d >= lo && d < hi && dc >= 0.05 - 0.001 && dc <= 0.07 + 0.001 &&
        r[qty].AsDouble() < 24.0) {
      expect += r[price].AsDouble() * dc;
    }
  }
  auto res = RunQuery(TpchQuery(Db()->catalog, 6, 0));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_NEAR(res.begin()->first[0].AsDouble(), expect,
              1e-6 * std::max(1.0, std::abs(expect)));
}

TEST_F(TpchSemantics, Q1GroupSumsMatchDirectComputation) {
  std::vector<Row> li = Rows("lineitem");
  int ship = Idx("lineitem", "l_shipdate");
  int rf = Idx("lineitem", "l_returnflag");
  int ls = Idx("lineitem", "l_linestatus");
  int qty = Idx("lineitem", "l_quantity");
  int64_t cutoff = TpchDate(1998, 12, 1) - 90;
  std::map<std::pair<std::string, std::string>, std::pair<double, int64_t>>
      expect;  // (rf, ls) -> (sum_qty, count)
  for (const Row& r : li) {
    if (r[ship].AsInt() > cutoff) continue;
    auto& slot = expect[{r[rf].AsString(), r[ls].AsString()}];
    slot.first += r[qty].AsDouble();
    slot.second += 1;
  }
  auto res = RunQuery(TpchQuery(Db()->catalog, 1, 0));
  ASSERT_EQ(res.size(), expect.size());
  // Output schema: rf, ls, sum_qty, ..., count_order (last).
  for (const auto& [row, mult] : res) {
    auto it = expect.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, expect.end());
    EXPECT_NEAR(row[2].AsDouble(), it->second.first, 1e-6 * it->second.first);
    EXPECT_EQ(row.back().AsInt(), it->second.second);
  }
}

TEST_F(TpchSemantics, Q4SemiJoinCountsMatchDirectComputation) {
  std::vector<Row> orders = Rows("orders");
  std::vector<Row> li = Rows("lineitem");
  int odate = Idx("orders", "o_orderdate");
  int okey = Idx("orders", "o_orderkey");
  int oprio = Idx("orders", "o_orderpriority");
  int lkey = Idx("lineitem", "l_orderkey");
  int commit = Idx("lineitem", "l_commitdate");
  int receipt = Idx("lineitem", "l_receiptdate");

  std::unordered_set<int64_t> late_orders;
  for (const Row& r : li) {
    if (r[commit].AsInt() < r[receipt].AsInt()) {
      late_orders.insert(r[lkey].AsInt());
    }
  }
  int64_t lo = TpchDate(1993, 7, 1), hi = TpchDate(1993, 10, 1);
  std::map<std::string, int64_t> expect;
  for (const Row& r : orders) {
    int64_t d = r[odate].AsInt();
    if (d >= lo && d < hi && late_orders.count(r[okey].AsInt()) > 0) {
      expect[r[oprio].AsString()] += 1;
    }
  }
  auto res = RunQuery(TpchQuery(Db()->catalog, 4, 0));
  ASSERT_EQ(res.size(), expect.size());
  for (const auto& [row, mult] : res) {
    auto it = expect.find(row[0].AsString());
    ASSERT_NE(it, expect.end()) << row[0].AsString();
    EXPECT_EQ(row[1].AsInt(), it->second);
  }
}

TEST_F(TpchSemantics, Q13DistributionMatchesDirectComputation) {
  std::vector<Row> orders = Rows("orders");
  int ckey = Idx("orders", "o_custkey");
  int comment = Idx("orders", "o_comment");
  std::map<int64_t, int64_t> per_cust;
  for (const Row& r : orders) {
    if (LikeMatch(r[comment].AsString(), "%special%requests%")) continue;
    per_cust[r[ckey].AsInt()] += 1;
  }
  std::map<int64_t, int64_t> expect;  // c_count -> customers
  for (const auto& [c, n] : per_cust) expect[n] += 1;
  auto res = RunQuery(TpchQuery(Db()->catalog, 13, 0));
  ASSERT_EQ(res.size(), expect.size());
  for (const auto& [row, mult] : res) {
    auto it = expect.find(row[0].AsInt());
    ASSERT_NE(it, expect.end());
    EXPECT_EQ(row[1].AsInt(), it->second);
  }
}

TEST_F(TpchSemantics, Q22AntiJoinMatchesDirectComputation) {
  std::vector<Row> cust = Rows("customer");
  std::vector<Row> orders = Rows("orders");
  int ckey = Idx("customer", "c_custkey");
  int bal = Idx("customer", "c_acctbal");
  int cc = Idx("customer", "c_phonecc");
  int ockey = Idx("orders", "o_custkey");

  std::unordered_set<std::string> ccs = {"13", "31", "23", "29",
                                         "30", "18", "17"};
  double sum = 0;
  int64_t n = 0;
  for (const Row& r : cust) {
    if (ccs.count(r[cc].AsString()) > 0 && r[bal].AsDouble() > 0) {
      sum += r[bal].AsDouble();
      ++n;
    }
  }
  double avg = n > 0 ? sum / static_cast<double>(n) : 0;
  std::unordered_set<int64_t> has_orders;
  for (const Row& r : orders) has_orders.insert(r[ockey].AsInt());

  std::map<std::string, std::pair<int64_t, double>> expect;
  for (const Row& r : cust) {
    if (ccs.count(r[cc].AsString()) == 0) continue;
    if (has_orders.count(r[ckey].AsInt()) > 0) continue;
    if (r[bal].AsDouble() <= avg) continue;
    auto& slot = expect[r[cc].AsString()];
    slot.first += 1;
    slot.second += r[bal].AsDouble();
  }
  auto res = RunQuery(TpchQuery(Db()->catalog, 22, 0));
  ASSERT_EQ(res.size(), expect.size());
  for (const auto& [row, mult] : res) {
    auto it = expect.find(row[0].AsString());
    ASSERT_NE(it, expect.end());
    EXPECT_EQ(row[1].AsInt(), it->second.first);
    EXPECT_NEAR(row[2].AsDouble(), it->second.second,
                1e-6 * std::max(1.0, it->second.second));
  }
}

TEST_F(TpchSemantics, Q18BigOrdersMatchDirectComputation) {
  std::vector<Row> li = Rows("lineitem");
  int lkey = Idx("lineitem", "l_orderkey");
  int qty = Idx("lineitem", "l_quantity");
  std::map<int64_t, double> per_order;
  for (const Row& r : li) per_order[r[lkey].AsInt()] += r[qty].AsDouble();
  int64_t big = 0;
  for (const auto& [o, q] : per_order) {
    if (q > 300.0) ++big;
  }
  // The engine's Q18 groups by order (plus customer columns): one result
  // row per big order.
  auto res = RunQuery(TpchQuery(Db()->catalog, 18, 0));
  EXPECT_EQ(static_cast<int64_t>(res.size()), big);
}

}  // namespace
}  // namespace ishare
