// Asserts the observability layer's cost contract (DESIGN.md §7): with
// instrumentation compiled in and enabled, a full optimize+execute cycle
// must run within 3% of the same binary with instrumentation disabled at
// runtime (obs::SetEnabled(false) turns every mutator into a near-free
// early return — the same hot-path shape as an ISHARE_OBS_ENABLED=0
// build). Exits non-zero on violation, so CI can gate on it.
//
// Methodology: N back-to-back pairs of an identical workload, one run per
// mode, alternating which mode runs first so drift within a pair lands on
// both modes alike. The gate is the median of the per-pair ratios, so a
// host that slows down for a while moves both halves of a pair rather
// than one mode's minimum; an absolute floor on the median per-pair
// difference keeps micro-runs dominated by timer noise from failing.

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"

namespace ishare {
namespace {

// One full shared-execution cycle: greedy pace search + decomposition over
// four sharing-friendly queries, then the window execution — every
// instrumented code path (estimator memo, optimizer iterations,
// decomposition rounds, subplan executions, per-query histograms) runs.
double RunOnce(TpchDb* db, const std::vector<QueryPlan>& queries,
               const BenchConfig& cfg, double* sink) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<double> rel(queries.size(), 0.2);
  Experiment ex(&db->catalog, &db->source, queries, rel, cfg.MakeOptions());
  ExperimentResult r = ex.Run(Approach::kIShare);
  *sink += r.total_work + r.MeanMissedRel();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Observability overhead — instrumented vs disabled", cfg);
  std::printf("# compiled with ISHARE_OBS_ENABLED=%d\n", ISHARE_OBS_ENABLED);

  TpchDb db(TpchScale{cfg.sf, cfg.seed});
  std::vector<QueryPlan> queries = {
      TpchQuery(db.catalog, 5, 0), TpchQuery(db.catalog, 7, 1),
      TpchQuery(db.catalog, 8, 2), TpchQuery(db.catalog, 9, 3)};

  // Even, so each mode runs first in half the pairs.
  const int kReps = cfg.quick ? 6 : 10;
  double sink = 0;

  // Warmup: populate allocator caches and the standalone-batch baselines'
  // code paths once per mode before timing.
  obs::SetEnabled(true);
  RunOnce(&db, queries, cfg, &sink);
  obs::SetEnabled(false);
  RunOnce(&db, queries, cfg, &sink);

  std::vector<double> on_secs, off_secs, ratios, diffs;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool on_first = rep % 2 == 0;
    double secs[2] = {0, 0};  // [disabled, enabled]
    for (bool enabled : {on_first, !on_first}) {
      obs::SetEnabled(enabled);
      secs[enabled ? 1 : 0] = RunOnce(&db, queries, cfg, &sink);
    }
    on_secs.push_back(secs[1]);
    off_secs.push_back(secs[0]);
    ratios.push_back(secs[0] > 0 ? secs[1] / secs[0] : 1.0);
    diffs.push_back(secs[1] - secs[0]);
  }
  obs::SetEnabled(true);

  const double ratio = Median(ratios);
  const double diff = Median(diffs);
  const double kMaxRatio = 1.03;
  const double kAbsFloorSeconds = 0.010;
  const bool pass = ratio <= kMaxRatio || diff <= kAbsFloorSeconds;

  TextTable t({"mode", "median_seconds", "min_seconds", "max_seconds"});
  for (const auto& [mode, secs] :
       {std::pair{"obs enabled", &on_secs}, {"obs disabled", &off_secs}}) {
    t.AddRow({mode, TextTable::Num(Median(*secs), 4),
              TextTable::Num(*std::min_element(secs->begin(), secs->end()),
                             4),
              TextTable::Num(*std::max_element(secs->begin(), secs->end()),
                             4)});
  }
  t.Print();
  std::printf(
      "\nmedian pair ratio %.4f over %d pairs (limit %.2f; median "
      "difference %.4fs, floor %.3fs): %s\n",
      ratio, kReps, kMaxRatio, diff, kAbsFloorSeconds, pass ? "PASS" : "FAIL");
  std::printf("(checksum %.1f)\n", sink);

  int json_rc = FinishBench(cfg, "bench_obs_overhead", {});
  return (pass && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
