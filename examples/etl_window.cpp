// Scheduled-ETL scenario: the same fact stream feeds several materialized
// rollups with different freshness requirements. Demonstrates driving the
// engine manually — advancing the stream, executing subplans at their own
// paces, and inspecting the delta buffers — i.e. the lower-level API below
// Experiment/OptimizePlan.
//
//   ./build/examples/etl_window

#include <cstdio>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/common/rng.h"
#include "ishare/plan/builder.h"

using namespace ishare;

int main() {
  // Clickstream facts loaded over one trigger window.
  Schema clicks({{"click_id", DataType::kInt64},
                 {"page", DataType::kInt64},
                 {"user_id", DataType::kInt64},
                 {"dwell_ms", DataType::kFloat64}});
  std::vector<Row> rows;
  Rng rng(99);
  for (int64_t i = 0; i < 30000; ++i) {
    rows.push_back({Value(i), Value(rng.UniformInt(0, 199)),
                    Value(rng.UniformInt(0, 999)),
                    Value(rng.UniformDouble(10.0, 60000.0))});
  }
  Catalog catalog;
  CHECK(catalog.AddTable("clicks", clicks, ComputeTableStats(clicks, rows))
            .ok());
  StreamSource source;
  source.AddTable("clicks", clicks, std::move(rows));

  // Rollup 1 (fresh): per-page click counts, maintained eagerly.
  PlanBuilder b0(&catalog, 0);
  QueryPlan page_counts{0, "page_counts",
                        b0.Aggregate(b0.ScanFiltered("clicks", nullptr),
                                     {"page"},
                                     {CountAgg("clicks"),
                                      SumAgg(Col("dwell_ms"), "dwell")})};

  // Rollup 2 (lazy): per-user engagement, computed once at the trigger.
  PlanBuilder b1(&catalog, 1);
  QueryPlan user_engagement{
      1, "user_engagement",
      b1.Aggregate(b1.ScanFiltered("clicks", nullptr), {"user_id"},
                   {CountAgg("clicks"), AvgAgg(Col("dwell_ms"), "avg_dwell")})};

  MqoOptimizer mqo(&catalog);
  SubplanGraph graph =
      SubplanGraph::Build(mqo.Merge({page_counts, user_engagement}));
  CHECK(graph.Validate().ok());
  std::printf("shared plan:\n%s\n", graph.ToString().c_str());

  // Manual pace choice: shared scan + fresh rollup at pace 10 (every 10%
  // of the load), lazy rollup at pace 1 (once, at the trigger point).
  PaceConfig paces(graph.num_subplans(), 1);
  paces[graph.query_root(0)] = 10;
  for (int c : graph.subplan(graph.query_root(0)).children) paces[c] = 10;

  AdaptiveExecutor exec(&graph, &source);
  RunResult run = exec.Run(paces).value().run;

  std::printf("executions per subplan:");
  for (const SubplanRunStats& s : run.subplans) {
    std::printf(" %zu", s.work_per_exec.size());
  }
  std::printf("\ntotal work %.0f; page_counts final work %.0f; "
              "user_engagement final work %.0f\n",
              run.total_work, run.query_final_work[0],
              run.query_final_work[1]);

  auto fresh = MaterializeResult(*exec.query_output(0), 0);
  auto lazy = MaterializeResult(*exec.query_output(1), 1);
  std::printf("page_counts rows: %zu, user_engagement rows: %zu\n",
              fresh.size(), lazy.size());
  return 0;
}
