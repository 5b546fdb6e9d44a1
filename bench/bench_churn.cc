// Churn bench (DESIGN.md §13): two gates over TPC-H workloads, exiting
// non-zero unless both hold.
//
//   1. Churn-layer overhead: a churn-free window driven through the
//      ChurnRuntime (boundary checks, admission queues, epoch
//      bookkeeping) must cost <= 5% wall time over the same merged plan
//      run through a bare AdaptiveExecutor — the churn layer is pure
//      bookkeeping until membership actually changes. Measured over
//      back-to-back pairs that alternate which side runs first; the
//      gate reads the median per-pair ratio, with a 2 ms floor on the
//      median per-pair difference (PairedOverhead, bench_util.h).
//   2. 1k-query stress: ~1000 registrations pushed through the runtime
//      as chaos-scheduled arrival/departure storms under memory
//      pressure, across many windows. The gate is survival: every
//      window completes OK (deferral and unshared fallback are allowed;
//      crashes and errors are not).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ishare/chaos/fault_schedule.h"
#include "ishare/churn/churn_runtime.h"
#include "ishare/common/check.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/mqo/mqo_optimizer.h"

namespace ishare {
namespace {

const char* PassFail(bool b) { return b ? "PASS" : "FAIL"; }

// The three-query family both overhead paths execute. Pure function of
// the id, as the churn runtime requires.
constexpr int kOverheadTpch[] = {5, 8, 9};

QueryPlan OverheadQuery(const Catalog& catalog, QueryId q) {
  return TpchQuery(catalog, kOverheadTpch[q % 3], q);
}

// One churn-free window through the bare stack: merge, build, run. This
// is exactly what ChurnRuntime does underneath minus the churn layer —
// including trim_at_boundaries off, which the runtime forces, so the
// comparison isolates the churn bookkeeping rather than the trim policy.
double TimedBareWindow(const TpchDb& db, int max_pace) {
  StreamSource src;
  CHECK(db.source.CloneTablesInto(&src).ok());
  std::vector<QueryPlan> plans;
  for (QueryId q = 0; q < 3; ++q) plans.push_back(OverheadQuery(db.catalog, q));
  ExecOptions opts;
  opts.flow.trim_at_boundaries = false;
  MqoOptimizer mqo(&db.catalog);
  std::vector<QueryPlan> merged = mqo.Merge(plans);
  SubplanGraph g = SubplanGraph::Build(merged);
  CHECK(g.Validate().ok());
  CostEstimator est(&g, &db.catalog, opts);
  std::vector<double> constraints(static_cast<size_t>(g.num_queries()), 1e18);
  auto t0 = std::chrono::steady_clock::now();
  AdaptiveExecutor exec(&est, &src, std::move(constraints), AdaptivePolicy(),
                        opts);
  PaceConfig paces(static_cast<size_t>(g.num_subplans()), max_pace);
  Result<AdaptiveRunResult> run = exec.Run(paces);
  CHECK(run.ok()) << run.status().ToString();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// The same window through ChurnRuntime with zero membership events: the
// delta over TimedBareWindow is the churn layer's standing cost.
double TimedChurnWindow(const TpchDb& db, int max_pace) {
  StreamSource src;
  CHECK(db.source.CloneTablesInto(&src).ok());
  churn::QueryProvider provider = [&db](QueryId q) {
    return OverheadQuery(db.catalog, q);
  };
  auto t0 = std::chrono::steady_clock::now();
  churn::ChurnRuntime rt(&db.catalog, &src, provider);
  for (QueryId q = 0; q < 3; ++q) CHECK(rt.Register(q, 1e18).ok());
  CHECK(rt.BeginWindow(max_pace).ok());
  while (rt.HasPendingSteps()) CHECK(rt.RunStep().ok());
  Result<AdaptiveRunResult> run = rt.FinishWindow();
  CHECK(run.ok()) << run.status().ToString();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Online churn — overhead and 1k-registration stress gates",
              cfg);

  TpchDb db(TpchScale{cfg.sf, cfg.seed});
  const int max_pace = cfg.quick ? 8 : 12;

  // ---- Gate 1: churn-layer overhead on a churn-free window --------------
  // An even pair count, so each side runs first in half the pairs;
  // EXPERIMENTS.md has the --quick count's resolution.
  const int pairs = cfg.quick ? 48 : 64;
  // Warm both paths once before timing.
  TimedBareWindow(db, max_pace);
  TimedChurnWindow(db, max_pace);
  const PairedOverhead timing =
      TimePairs(pairs, [&] { return TimedBareWindow(db, max_pace); },
                [&] { return TimedChurnWindow(db, max_pace); });
  // The 5% gate, with a 2ms absolute floor so micro-windows where one
  // scheduler hiccup exceeds the whole budget cannot flake the bench.
  const bool overhead_ok = timing.Within(1.05, 0.002);

  std::printf("\n== churn-layer overhead (churn-free, %d pairs) ==\n", pairs);
  TextTable ot({"driver", "median_s", "overhead"});
  ot.AddRow({"bare executor", TextTable::Num(Median(timing.base_seconds), 5),
             "-"});
  ot.AddRow({"churn runtime",
             TextTable::Num(Median(timing.measured_seconds), 5),
             TextTable::Num(100.0 * (timing.ratio - 1.0), 2) + "%"});
  ot.Print();
  std::printf("median pair ratio %.4f, median difference %.5fs\n",
              timing.ratio, timing.diff_seconds);

  // ---- Gate 2: 1k-registration stress under chaos churn storms ----------
  // Fresh runtime per window round (ids restart small each round); each
  // round runs under a randomized chaos schedule of churn storms plus
  // memory-pressure waves against a tight arbiter budget. Registrations
  // accumulate across rounds until the target is cleared.
  const int64_t target_regs = cfg.quick ? 100 : 1000;
  churn::ChurnStats total;
  int64_t rounds = 0;
  std::string failure;
  while (failure.empty() && total.registrations < target_regs) {
    ++rounds;
    StreamSource src;
    CHECK(db.source.CloneTablesInto(&src).ok());
    flow::MemoryBudget budget(1 << 24);
    churn::ChurnOptions copts;
    copts.exec.flow.budget = &budget;
    churn::QueryProvider provider = [&db](QueryId q) {
      return OverheadQuery(db.catalog, q);
    };
    churn::ChurnRuntime rt(&db.catalog, &src, provider, copts);

    chaos::ChaosScheduleOptions sopts;
    sopts.max_step = max_pace;
    sopts.num_events = 2;  // memory-pressure waves against the arbiter
    sopts.num_source_events = 0;
    sopts.churn_events = 4;
    sopts.max_churn_arrivals = 8;
    sopts.max_churn_departures = 4;
    chaos::FaultSchedule sched = chaos::FaultSchedule::Random(
        cfg.seed * 1000 + static_cast<uint64_t>(rounds), sopts,
        src.TableNames());
    chaos::ChaosInjector::Targets targets;
    targets.budget = &budget;
    targets.churn = [&rt](int arrivals, int departures) {
      return rt.InjectChurn(arrivals, departures);
    };
    chaos::ChaosInjector injector(sched, targets);

    Status st = rt.Register(0, 1e18);
    if (st.ok()) st = rt.Register(1, 1e18);
    if (st.ok()) st = rt.BeginWindow(max_pace);
    if (st.ok()) st = injector.OnStepBoundary(0);
    while (st.ok() && rt.HasPendingSteps()) {
      st = rt.RunStep();
      if (st.ok()) st = injector.OnStepBoundary(rt.exec()->completed_steps());
    }
    if (st.ok()) st = rt.FinishWindow().status();
    if (!st.ok()) {
      failure = "round " + std::to_string(rounds) + " [" + sched.ToString() +
                "]: " + st.ToString();
      break;
    }
    const churn::ChurnStats& s = rt.stats();
    total.registrations += s.registrations;
    total.deregistrations += s.deregistrations;
    total.deferrals += s.deferrals;
    total.unshared_fallbacks += s.unshared_fallbacks;
    total.epochs += s.epochs;
    total.subplans_carried += s.subplans_carried;
    total.subplans_rebuilt += s.subplans_rebuilt;
    total.reclaimed_bytes += s.reclaimed_bytes;
  }
  bool stress_ok = failure.empty() && total.registrations >= target_regs;

  std::printf("\n== churn stress ==\n");
  std::printf(
      "rounds %lld | registered %lld (target %lld) | departed %lld | "
      "deferred %lld | unshared %lld | epochs %lld\n",
      static_cast<long long>(rounds),
      static_cast<long long>(total.registrations),
      static_cast<long long>(target_regs),
      static_cast<long long>(total.deregistrations),
      static_cast<long long>(total.deferrals),
      static_cast<long long>(total.unshared_fallbacks),
      static_cast<long long>(total.epochs));
  std::printf("carried %lld | rebuilt %lld | reclaimed %lld bytes\n",
              static_cast<long long>(total.subplans_carried),
              static_cast<long long>(total.subplans_rebuilt),
              static_cast<long long>(total.reclaimed_bytes));
  if (!failure.empty()) {
    std::printf("failure: %s\n", failure.c_str());
  }

  std::printf("\n== gates ==\n");
  TextTable gates({"gate", "verdict"});
  gates.AddRow({"churn-layer overhead <= 5%", PassFail(overhead_ok)});
  gates.AddRow({"1k-registration stress completes", PassFail(stress_ok)});
  gates.Print();
  bool all = overhead_ok && stress_ok;
  std::printf("overall: %s\n", PassFail(all));

  int json_rc = FinishBench(cfg, "bench_churn", {});
  return (all && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
