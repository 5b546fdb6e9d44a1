// Chaos supervision bench (DESIGN.md §11): two gates, exercised over a
// TPC-H workload, exiting non-zero unless both hold.
//
//   1. Supervision overhead: a fault-free window driven through the
//      Supervisor (breaker bookkeeping, ladder updates, per-step
//      observations) must cost <= 5% wall time over the same window with
//      a bare CheckpointManager hook — the supervision layer is pure
//      bookkeeping until something actually fails. Measured over
//      back-to-back pairs that alternate which hook runs first; the gate
//      reads the median per-pair ratio, with a 2 ms floor on the median
//      per-pair difference (PairedOverhead, bench_util.h).
//   2. Chaos sweep: randomized composed fault schedules through the chaos
//      harness; every seed must pass all four gates (completion, baseline
//      equivalence, zero-slack protection, breaker attribution).

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ishare/chaos/supervisor.h"
#include "ishare/common/check.h"
#include "ishare/harness/chaos_harness.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"

namespace ishare {
namespace {

const char* PassFail(bool b) { return b ? "PASS" : "FAIL"; }

// One fault-free window over `g`, checkpointing every other step, timed.
// `supervised` routes the after-step hook through a Supervisor (with the
// full observation surface exercised); otherwise the bare manager runs.
double TimedWindow(const SubplanGraph& g, const StreamSource& dataset,
                   const PaceConfig& paces, bool supervised) {
  StreamSource src;
  CHECK(dataset.CloneTablesInto(&src).ok());
  AdaptiveExecutor exec(&g, &src);
  recovery::MemoryCheckpointStore store;
  recovery::CheckpointManagerOptions mopts;
  mopts.epoch_len = 2;
  mopts.overhead_budget = 0;
  recovery::CheckpointManager mgr(&store, mopts);
  chaos::Supervisor sup(&mgr);
  const double steps = static_cast<double>(paces.empty() ? 1 : paces[0]);
  exec.set_after_step_hook([&](int64_t step) -> Status {
    if (!supervised) return mgr.OnStepComplete(step, exec);
    double f = static_cast<double>(step) / steps;
    sup.ObserveSourceProgress(step, f, f);
    sup.ObserveMemoryPressure(step, 0.0);
    sup.ObserveFlow(step, flow::FlowStats{});
    return sup.OnStepComplete(step, exec);
  });
  auto t0 = std::chrono::steady_clock::now();
  Result<AdaptiveRunResult> run = exec.Run(paces);
  auto t1 = std::chrono::steady_clock::now();
  CHECK(run.ok()) << run.status().ToString();
  return std::chrono::duration<double>(t1 - t0).count();
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Chaos supervision — overhead and composed-fault gates", cfg);

  TpchDb db(TpchScale{cfg.sf, cfg.seed});
  std::vector<QueryPlan> queries = {TpchQuery(db.catalog, 5, 0),
                                    TpchQuery(db.catalog, 8, 1),
                                    TpchQuery(db.catalog, 9, 2)};
  SubplanGraph g = SubplanGraph::Build(queries);
  PaceConfig paces(g.num_subplans(), cfg.quick ? 8 : 12);

  // ---- Gate 1: supervision overhead on a fault-free window --------------
  // An even pair count, so each side runs first in half the pairs;
  // EXPERIMENTS.md has the --quick count's resolution.
  const int pairs = cfg.quick ? 24 : 32;
  // Warm both paths once (allocator, page cache) before timing.
  TimedWindow(g, db.source, paces, /*supervised=*/false);
  TimedWindow(g, db.source, paces, /*supervised=*/true);
  const PairedOverhead timing = TimePairs(
      pairs,
      [&] { return TimedWindow(g, db.source, paces, /*supervised=*/false); },
      [&] { return TimedWindow(g, db.source, paces, /*supervised=*/true); });
  // The 5% gate, with a 2ms absolute floor so micro-windows where one
  // scheduler hiccup exceeds the whole budget cannot flake the bench.
  const bool overhead_ok = timing.Within(1.05, 0.002);

  std::printf("\n== supervision overhead (fault-free, %d pairs) ==\n", pairs);
  TextTable ot({"hook", "median_s", "overhead"});
  ot.AddRow({"bare manager", TextTable::Num(Median(timing.base_seconds), 5),
             "-"});
  ot.AddRow({"supervisor", TextTable::Num(Median(timing.measured_seconds), 5),
             TextTable::Num(100.0 * (timing.ratio - 1.0), 2) + "%"});
  ot.Print();
  std::printf("median pair ratio %.4f, median difference %.5fs\n",
              timing.ratio, timing.diff_seconds);

  // ---- Gate 2: composed-fault sweep through the chaos harness -----------
  CostEstimator est(&g, &db.catalog);
  PlanCost cost = est.Estimate(paces);
  std::vector<double> abs = {cost.query_final_work[0],
                             10.0 * cost.query_final_work[1],
                             10.0 * cost.query_final_work[2]};
  std::vector<std::string> tables = db.source.TableNames();
  chaos::ChaosScheduleOptions sopts;
  sopts.max_step = paces[0];

  const uint64_t sweep_seeds = cfg.quick ? 12 : 40;
  uint64_t passed = 0;
  int64_t injections = 0, trips = 0;
  std::string first_violation;
  for (uint64_t seed = 1; seed <= sweep_seeds; ++seed) {
    chaos::FaultSchedule sched =
        chaos::FaultSchedule::Random(cfg.seed * 1000 + seed, sopts, tables);
    Result<ChaosReport> rep =
        RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
    if (!rep.ok()) {
      if (first_violation.empty()) {
        first_violation =
            "seed " + std::to_string(seed) + ": " + rep.status().ToString();
      }
      continue;
    }
    if (rep->AllGatesPass()) {
      ++passed;
    } else if (first_violation.empty()) {
      first_violation = "seed " + std::to_string(seed) + " [" +
                        sched.ToString() + "]: " + rep->mismatch;
    }
    injections += static_cast<int64_t>(rep->injections.size());
    for (const chaos::BreakerTransition& t : rep->breakers) {
      if (t.to == chaos::BreakerState::kOpen) ++trips;
    }
  }
  bool sweep_ok = passed == sweep_seeds;

  std::printf("\n== chaos sweep ==\n");
  std::printf(
      "seeds %llu/%llu passed | faults injected %lld | breaker trips %lld\n",
      static_cast<unsigned long long>(passed),
      static_cast<unsigned long long>(sweep_seeds),
      static_cast<long long>(injections), static_cast<long long>(trips));
  if (!first_violation.empty()) {
    std::printf("first violation: %s\n", first_violation.c_str());
  }

  std::printf("\n== gates ==\n");
  TextTable gates({"gate", "verdict"});
  gates.AddRow({"supervision overhead <= 5%", PassFail(overhead_ok)});
  gates.AddRow({"sweep: all seeds pass all gates", PassFail(sweep_ok)});
  gates.Print();
  bool all = overhead_ok && sweep_ok;
  std::printf("overall: %s\n", PassFail(all));

  int json_rc = FinishBench(cfg, "bench_chaos", {});
  return (all && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
