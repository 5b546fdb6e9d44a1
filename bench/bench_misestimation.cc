// Reproduces the experiment the paper describes but omits for space
// (Sec. 3.2): sensitivity to inaccurate cardinality estimation. The
// optimizers see a catalog whose row counts and NDVs are perturbed by
// random factors, while execution runs on the true data. The paper reports
// that iShare keeps lower CPU consumption and similar latencies than the
// baselines under misestimation; this bench checks that shape.

#include "bench_util.h"
#include "ishare/common/rng.h"

namespace ishare {
namespace {

// Perturbs every table's row count and every column's NDV by a factor in
// [1/skew, skew], log-uniformly.
Catalog PerturbCatalog(const Catalog& truth, double skew, uint64_t seed) {
  Rng rng(seed);
  Catalog out;
  auto factor = [&]() {
    double t = rng.UniformDouble(-1.0, 1.0);
    return std::pow(skew, t);
  };
  for (const std::string& name : truth.TableNames()) {
    TableStats stats = truth.GetStats(name);
    stats.row_count = std::max(1.0, stats.row_count * factor());
    for (auto& [col, cs] : stats.columns) {
      cs.ndv = std::max(1.0, cs.ndv * factor());
    }
    CHECK(out.AddTable(name, truth.GetSchema(name), std::move(stats)).ok());
  }
  return out;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Misestimation — optimizers see perturbed statistics", cfg);
  TpchDb db(TpchScale{cfg.sf, cfg.seed});
  std::vector<QueryPlan> queries = SharingFriendlyQueries(db.catalog);
  std::vector<double> rel(queries.size(), 0.2);

  std::vector<double> skews =
      cfg.quick ? std::vector<double>{1.0, 4.0}
                : std::vector<double>{1.0, 2.0, 4.0, 8.0};

  TextTable t({"stat_skew", "approach", "total_exec_s", "total_work",
               "missed_mean_%", "missed_max_%"});
  for (double skew : skews) {
    Catalog perturbed = PerturbCatalog(db.catalog, skew, 1000 + skew);
    for (Approach a : StandardApproaches()) {
      // Optimize against the perturbed catalog...
      OptimizedPlan plan =
          OptimizePlan(a, queries, perturbed, rel, cfg.MakeOptions());
      // ...execute on the true data, judge against true batch work.
      db.Reset();
      AdaptiveExecutor exec(&plan.graph, &db.source, cfg.MakeOptions().exec);
      RunResult run = exec.Run(plan.paces).value().run;
      Experiment truth_ex(&db.catalog, &db.source, queries, rel,
                          cfg.MakeOptions());
      const std::vector<double>& bfw = truth_ex.BatchFinalWork();
      double missed_mean = 0, missed_max = 0;
      for (const QueryPlan& q : queries) {
        double goal = rel[q.id] * bfw[q.id];
        double miss = goal > 0 ? std::max(0.0, run.query_final_work[q.id] -
                                                   goal) /
                                     goal
                               : 0.0;
        missed_mean += miss;
        missed_max = std::max(missed_max, miss);
      }
      missed_mean = 100.0 * missed_mean / static_cast<double>(queries.size());
      t.AddRow({TextTable::Num(skew, 1), ApproachName(a),
                TextTable::Num(run.total_seconds, 3),
                TextTable::Num(run.total_work, 0),
                TextTable::Num(missed_mean, 2),
                TextTable::Num(100.0 * missed_max, 2)});
    }
    std::printf("skew %.1f done\n", skew);
  }
  std::printf("\n== CPU and missed latency under statistic skew ==\n");
  t.Print();
  return FinishBench(cfg, "bench_misestimation", {});
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
