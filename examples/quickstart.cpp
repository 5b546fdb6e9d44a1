// Quickstart: define two scheduled queries with different latency goals
// over a streaming dataset, let iShare optimize them, and execute the
// trigger window.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/harness/experiment.h"
#include "ishare/common/rng.h"
#include "ishare/plan/builder.h"

using namespace ishare;  // examples only; library code never does this

int main() {
  // ---------------------------------------------------------------------
  // 1. Define the streaming dataset: a sales table whose rows arrive over
  //    the trigger window (e.g. the daily load).
  // ---------------------------------------------------------------------
  Schema sales({{"sale_id", DataType::kInt64},
                {"store", DataType::kInt64},
                {"amount", DataType::kFloat64}});
  std::vector<Row> rows;
  Rng rng(42);
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back({Value(i), Value(rng.UniformInt(0, 49)),
                    Value(rng.UniformDouble(1.0, 500.0))});
  }

  Catalog catalog;
  CHECK(catalog.AddTable("sales", sales, ComputeTableStats(sales, rows)).ok());
  StreamSource source;
  source.AddTable("sales", sales, std::move(rows));

  // ---------------------------------------------------------------------
  // 2. Define two scheduled queries sharing work.
  //    q0: revenue per store (due lazily — relative constraint 1.0)
  //    q1: revenue per store for big tickets (due fast — constraint 0.1)
  // ---------------------------------------------------------------------
  PlanBuilder b0(&catalog, /*query=*/0);
  QueryPlan q0{0, "store_revenue",
               b0.Aggregate(b0.ScanFiltered("sales", nullptr), {"store"},
                            {SumAgg(Col("amount"), "revenue"),
                             CountAgg("sales_cnt")})};

  PlanBuilder b1(&catalog, /*query=*/1);
  QueryPlan q1{1, "big_ticket_revenue",
               b1.Aggregate(
                   b1.ScanFiltered("sales", Gt(Col("amount"), Lit(400.0))),
                   {"store"},
                   {SumAgg(Col("amount"), "revenue"), CountAgg("sales_cnt")})};

  // ---------------------------------------------------------------------
  // 3. Optimize with iShare and run the trigger window.
  // ---------------------------------------------------------------------
  std::vector<double> rel_constraints = {1.0, 0.1};
  OptimizedPlan plan = OptimizePlan(Approach::kIShare, {q0, q1}, catalog,
                                    rel_constraints);

  std::printf("optimized shared plan (%d subplans):\n%s\n",
              plan.graph.num_subplans(), plan.graph.ToString().c_str());
  std::printf("pace configuration: ");
  for (int p : plan.paces) std::printf("%d ", p);
  std::printf("\n\n");

  AdaptiveExecutor exec(&plan.graph, &source);
  RunResult run = exec.Run(plan.paces).value().run;

  std::printf("total work: %.0f units over %.3f s\n", run.total_work,
              run.total_seconds);
  for (QueryId q = 0; q < 2; ++q) {
    std::printf("query %d final work: %.0f units\n", q,
                run.query_final_work[q]);
  }

  // ---------------------------------------------------------------------
  // 4. Read the results from the query output buffers.
  // ---------------------------------------------------------------------
  auto result = MaterializeResult(*exec.query_output(1), 1);
  std::printf("\nbig_ticket_revenue: %zu stores, first few rows:\n",
              result.size());
  int shown = 0;
  for (const auto& [row, mult] : result) {
    if (shown++ >= 5) break;
    std::printf("  %s\n", RowToString(row).c_str());
  }
  return 0;
}
