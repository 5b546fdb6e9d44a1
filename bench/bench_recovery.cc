// Asserts the recovery layer's cost contract (DESIGN.md §8): under the
// default budget-regulated cadence, a long-running stream of trigger
// windows spends at most 5% of its execution time (beyond measurement
// noise) on checkpointing, and a full crash + restore + replay cycle
// reproduces the uninterrupted run exactly. Exits non-zero on violation,
// so CI can gate on it.
//
// Methodology: one CheckpointManager lives across the whole session, as
// it would in a deployment. The warmup window pays the one-time
// calibration checkpoint that teaches the manager its snapshot cost; the
// measured phase then runs checkpoint-off and checkpoint-on window blocks
// and gates on time the manager actually spent checkpointing (tracked in
// RecoveryStats) against the budget share of the session's wall-clock
// span, with an absolute floor so timer jitter on micro-runs cannot fail
// spuriously. An on/off window-time ratio is printed for context only. A
// second, informational section reports the unregulated cost of strict
// every-epoch checkpointing — the price the budget exists to bound.

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "bench_util.h"
#include "ishare/harness/crash_harness.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"

namespace ishare {
namespace {

// One pace-driven window over a shared TPC-H plan. With a manager, epoch
// boundaries are offered to it (it decides affordability); without one,
// the window runs checkpoint-free.
double RunWindow(TpchDb* db, const SubplanGraph& g, const PaceConfig& paces,
                 recovery::CheckpointManager* mgr, double* sink) {
  db->source.Reset();
  AdaptiveExecutor exec(&g, &db->source);
  if (mgr != nullptr) {
    exec.set_after_step_hook([mgr, &exec](int64_t step) {
      return mgr->OnStepComplete(step, exec);
    });
  }
  auto t0 = std::chrono::steady_clock::now();
  RunResult r = exec.Run(paces).value().run;
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  *sink += r.total_work;
  return secs;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Recovery — checkpoint overhead and crash/restore cycle", cfg);

  TpchDb db(TpchScale{cfg.sf, cfg.seed});
  std::vector<QueryPlan> queries = {TpchQuery(db.catalog, 5, 0),
                                    TpchQuery(db.catalog, 8, 1),
                                    TpchQuery(db.catalog, 9, 2)};
  SubplanGraph g = SubplanGraph::Build(queries);
  PaceConfig paces(g.num_subplans(), 8);  // 8 steps; epoch boundaries 4, 8

  // ---- Checkpoint overhead gate (default budgeted cadence) -------------
  const int kReps = cfg.quick ? 5 : 9;
  double sink = 0;
  recovery::MemoryCheckpointStore session_store;
  recovery::CheckpointManager session_mgr(&session_store);  // defaults

  auto session_t0 = std::chrono::steady_clock::now();
  // Warmup: pays the calibration checkpoint and warms caches on both arms.
  RunWindow(&db, g, paces, &session_mgr, &sink);
  RunWindow(&db, g, paces, nullptr, &sink);
  int64_t calibration_checkpoints = session_mgr.stats().checkpoints;
  double calibration_seconds = session_mgr.stats().checkpoint_seconds;

  // Contiguous blocks rather than interleaving: the budget regulator
  // accounts wall-clock execution time, so off-windows spliced between
  // on-windows would be credited as checkpoint-free execution and skew
  // its decisions. The off block directly after warmup keeps both blocks
  // equally warm.
  std::vector<double> on_secs, off_secs;
  for (int rep = 0; rep < kReps; ++rep) {
    off_secs.push_back(RunWindow(&db, g, paces, nullptr, &sink));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    on_secs.push_back(RunWindow(&db, g, paces, &session_mgr, &sink));
  }
  double session_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    session_t0)
          .count();
  double total_on = std::accumulate(on_secs.begin(), on_secs.end(), 0.0);
  double total_off = std::accumulate(off_secs.begin(), off_secs.end(), 0.0);
  double min_off = *std::min_element(off_secs.begin(), off_secs.end());
  double max_off = *std::max_element(off_secs.begin(), off_secs.end());
  double ratio = total_off > 0 ? total_on / total_off : 1.0;
  // The gate measures the regulator's invariant directly: wall-clock
  // seconds spent checkpointing after calibration must fit within the
  // 5% budget of the session's elapsed time (plus an absolute floor for
  // timer jitter on micro-runs). The on-vs-off window ratio above is
  // reported for context but differencing noisy window times is not the
  // gate — a single in-budget checkpoint concentrated in one window
  // would fail a per-window ratio while honoring the session contract.
  const double kBudget = session_mgr.options().overhead_budget;
  const double kAbsFloorSeconds = 0.010;
  double measured_ckpt_secs =
      session_mgr.stats().checkpoint_seconds - calibration_seconds;
  double allowance = kBudget * session_elapsed + kAbsFloorSeconds;
  bool overhead_pass = measured_ckpt_secs <= allowance;
  // The contract is about a regulator, not about never checkpointing:
  // the session must have calibrated (taken at least one checkpoint).
  bool calibrated = calibration_checkpoints >= 1;

  const recovery::RecoveryStats& ss = session_mgr.stats();
  TextTable t({"mode", "total_seconds", "min_window", "max_window"});
  t.AddRow({"checkpoints on", TextTable::Num(total_on, 4),
            TextTable::Num(*std::min_element(on_secs.begin(), on_secs.end()),
                           4),
            TextTable::Num(*std::max_element(on_secs.begin(), on_secs.end()),
                           4)});
  t.AddRow({"checkpoints off", TextTable::Num(total_off, 4),
            TextTable::Num(min_off, 4), TextTable::Num(max_off, 4)});
  t.Print();
  std::printf(
      "\nsession checkpoints: %lld (%lld during calibration), "
      "budget-skipped boundaries: %lld, on/off window ratio %.4f\n",
      static_cast<long long>(ss.checkpoints),
      static_cast<long long>(calibration_checkpoints),
      static_cast<long long>(ss.budget_skipped), ratio);
  std::printf(
      "checkpoint time after calibration %.4fs vs budget %.0f%% of %.4fs "
      "session = %.4fs allowed, calibrated: %s -> %s\n",
      measured_ckpt_secs, kBudget * 100, session_elapsed, allowance,
      calibrated ? "yes" : "no",
      (overhead_pass && calibrated) ? "PASS" : "FAIL");
  overhead_pass = overhead_pass && calibrated;

  // ---- Strict every-epoch cost (informational) -------------------------
  recovery::MemoryCheckpointStore strict_store;
  recovery::CheckpointManagerOptions strict_opts;
  strict_opts.overhead_budget = 0;
  recovery::CheckpointManager strict_mgr(&strict_store, strict_opts);
  double strict_secs = RunWindow(&db, g, paces, &strict_mgr, &sink);
  std::printf(
      "\nstrict cadence (budget off): %lld checkpoints, %.1f MB, window "
      "%.4fs vs %.4fs min without — the unregulated cost the budget "
      "bounds\n",
      static_cast<long long>(strict_mgr.stats().checkpoints),
      static_cast<double>(strict_mgr.stats().checkpoint_bytes) / 1e6,
      strict_secs, min_off);

  // ---- Crash + restore + replay cycle ----------------------------------
  recovery::MemoryCheckpointStore store;
  CrashRecoveryOptions copts;
  copts.store = &store;
  copts.checkpoint.epoch_len = 4;
  copts.plan = {CrashPhase::kAfterStep, 6, 0};  // between epochs 4 and 8
  SourceFactory factory = [&db]() {
    auto src = std::make_unique<StreamSource>();
    CHECK(db.source.CloneTablesInto(src.get()).ok());
    return src;
  };
  auto t0 = std::chrono::steady_clock::now();
  Result<CrashRunReport> rep = RunCrashRecoveryStatic(g, paces, factory, copts);
  double cycle_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  bool cycle_pass = rep.ok() && rep->crashed &&
                    rep->recovered_from_checkpoint && rep->Equivalent();

  std::printf("\n== crash at step %lld / %lld, restore, replay ==\n",
              static_cast<long long>(copts.plan.step),
              static_cast<long long>(rep.ok() ? rep->total_steps : 0));
  if (rep.ok()) {
    TextTable c({"quantity", "value"});
    c.AddRow({"recovered from step", TextTable::Num(
                                         static_cast<double>(rep->recovered_step), 0)});
    c.AddRow({"checkpoints taken",
              TextTable::Num(static_cast<double>(rep->recovery.checkpoints), 0)});
    c.AddRow({"checkpoint bytes",
              TextTable::Num(static_cast<double>(rep->recovery.checkpoint_bytes), 0)});
    c.AddRow({"replayed deltas",
              TextTable::Num(static_cast<double>(rep->replayed_deltas), 0)});
    c.AddRow({"cycle seconds", TextTable::Num(cycle_secs, 4)});
    c.Print();
    std::printf("bit-exact equivalence: %s%s%s\n",
                rep->Equivalent() ? "PASS" : "FAIL",
                rep->mismatch.empty() ? "" : " — ",
                rep->mismatch.c_str());
  } else {
    std::printf("crash/recovery harness failed: %s\n",
                rep.status().ToString().c_str());
  }
  std::printf("(checksum %.1f)\n", sink);

  int json_rc = FinishBench(cfg, "bench_recovery", {});
  return (overhead_pass && cycle_pass && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
