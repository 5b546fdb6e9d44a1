// Crash/recovery equivalence tests (DESIGN.md §8): a seeded crash at any
// step, in any phase (after a step, mid-step, or between checkpoint stage
// and commit), followed by restore-from-checkpoint and delta replay, must
// reproduce the uninterrupted run bit for bit — per-query output logs,
// executor state fingerprints and work totals.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ishare/churn/churn_runtime.h"
#include "ishare/common/rng.h"
#include "ishare/cost/estimator.h"
#include "ishare/harness/crash_harness.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/storage/perturbed_source.h"
#include "test_util.h"

namespace ishare {
namespace {

using recovery::MemoryCheckpointStore;

SourceFactory MakeFactory(const TestDb& db) {
  const StreamSource* clean = &db.source;
  return [clean]() {
    auto src = std::make_unique<StreamSource>();
    CHECK(clean->CloneTablesInto(src.get()).ok());
    return src;
  };
}

void ExpectEquivalent(const CrashRunReport& rep, const std::string& where) {
  EXPECT_TRUE(rep.results_identical) << where << ": " << rep.mismatch;
  EXPECT_TRUE(rep.state_identical) << where << ": " << rep.mismatch;
  EXPECT_TRUE(rep.work_identical) << where << ": " << rep.mismatch;
  ASSERT_TRUE(rep.Equivalent()) << where << ": " << rep.mismatch;
}

// ---------------------------------------------------------------------------
// Static executor: crash at every step, in every phase
// ---------------------------------------------------------------------------

TEST(CrashRecoveryStatic, CrashAfterEveryStepIsBitExact) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};  // 4 event points: 1/4, 1/2, 3/4, 1/1
  SourceFactory factory = MakeFactory(db);

  for (int64_t step = 1; step <= 4; ++step) {
    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.plan = {CrashPhase::kAfterStep, step, 0};
    Result<CrashRunReport> rep =
        RunCrashRecoveryStatic(g, paces, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_EQ(rep->total_steps, 4);
    if (step < 4) {
      EXPECT_TRUE(rep->crashed) << "step " << step;
      EXPECT_EQ(rep->crash_step, step);
    }
    if (rep->crashed && step >= 2) {
      // An epoch (len 2) committed before the crash: real recovery.
      EXPECT_TRUE(rep->recovered_from_checkpoint) << "step " << step;
      EXPECT_GT(rep->recovered_step, 0);
      EXPECT_LE(rep->recovered_step, step);
      EXPECT_GE(rep->recovery.restores, 1);
    }
    if (rep->crashed && step == 1) {
      // Crash before the first epoch boundary: no checkpoint exists yet,
      // recovery degrades to a clean rerun.
      EXPECT_FALSE(rep->recovered_from_checkpoint);
    }
    ExpectEquivalent(*rep, "after step " + std::to_string(step));
  }
}

TEST(CrashRecoveryStatic, CrashDuringEverySubplanIsBitExact) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  ASSERT_EQ(g.num_subplans(), 3);
  PaceConfig paces = {2, 2, 4};
  SourceFactory factory = MakeFactory(db);

  for (int64_t step = 1; step <= 4; ++step) {
    for (int subplan = 0; subplan < 3; ++subplan) {
      MemoryCheckpointStore store;
      CrashRecoveryOptions opts;
      opts.store = &store;
      opts.plan = {CrashPhase::kDuringSubplan, step, subplan};
      Result<CrashRunReport> rep =
          RunCrashRecoveryStatic(g, paces, factory, opts);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      // Mid-step crashes lose the partial step; it must be re-executed
      // from the last committed epoch with identical results.
      ExpectEquivalent(*rep, "during step " + std::to_string(step) +
                                 " subplan " + std::to_string(subplan));
    }
  }
}

TEST(CrashRecoveryStatic, TornCheckpointBetweenStageAndCommitIsInvisible) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};
  SourceFactory factory = MakeFactory(db);

  // Crash after staging step 3's checkpoint but before commit. The only
  // committed epoch is step 2; the staged frame must be ignored.
  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.store = &store;
  opts.plan = {CrashPhase::kBetweenStageAndCommit, 3, 0};
  Result<CrashRunReport> rep = RunCrashRecoveryStatic(g, paces, factory, opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->crashed);
  EXPECT_TRUE(rep->recovered_from_checkpoint);
  EXPECT_EQ(rep->recovered_step, 2);
  ExpectEquivalent(*rep, "torn at step 3");
}

TEST(CrashRecoveryStatic, NoCrashControlRunsAreIdentical) {
  TestDb db(/*n_orders=*/80, /*n_customers=*/5);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  SourceFactory factory = MakeFactory(db);

  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.store = &store;
  opts.plan.phase = CrashPhase::kNone;
  Result<CrashRunReport> rep =
      RunCrashRecoveryStatic(g, {2, 2, 4}, factory, opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_FALSE(rep->crashed);
  // Checkpointing ran (epoch len 2 over 4 steps) without perturbing the
  // run in any observable way.
  EXPECT_GE(rep->recovery.checkpoints, 1);
  ExpectEquivalent(*rep, "control");
}

TEST(CrashRecoveryStatic, CorruptedNewestEpochFallsBackToOlder) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {4, 4, 4};  // 4 steps, epochs at 2 and 4 with len 2
  SourceFactory factory = MakeFactory(db);

  // First, a run that crashes after step 3 — epoch 2 is committed. Then
  // corrupt it and crash-recover again: with every epoch bad, recovery
  // degrades to a rerun and results still match.
  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.store = &store;
  opts.plan = {CrashPhase::kAfterStep, 3, 0};
  {
    Result<CrashRunReport> rep =
        RunCrashRecoveryStatic(g, paces, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ASSERT_TRUE(rep->recovered_from_checkpoint);
    EXPECT_EQ(rep->recovered_step, 2);
    ExpectEquivalent(*rep, "before corruption");
  }
  // Plant a rotten frame at an epoch newer than anything a real run
  // commits. RecoverLatest must try it first, discard it, and fall back
  // to the genuine epoch 2 the crashed run left behind.
  ASSERT_TRUE(store.Stage(99, "not a checkpoint frame").ok());
  ASSERT_TRUE(store.Commit(99).ok());
  {
    Result<CrashRunReport> rep =
        RunCrashRecoveryStatic(g, paces, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_TRUE(rep->crashed);
    EXPECT_GE(rep->recovery.torn_discarded, 1);
    EXPECT_TRUE(rep->recovered_from_checkpoint);
    EXPECT_EQ(rep->recovered_step, 2);
    ExpectEquivalent(*rep, "after corruption");
  }
}

TEST(CrashRecoveryStatic, RestoreRejectsOutOfRangeWords) {
  // Paces, pace-history entries and the rederivation count are int64
  // words that narrow to int. Each is range-checked before the cast, so a
  // pace of 2^32 + 3 fails the restore instead of restoring as pace 3,
  // below its parent's pace of 4.
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  StreamSource src_a;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_a).ok());
  AdaptiveExecutor a(&g, &src_a);
  ASSERT_TRUE(a.BeginWindow({2, 2, 4}).ok());
  recovery::CheckpointWriter w;
  ASSERT_TRUE(a.Snapshot(&w).ok());
  const std::string blob = w.Take();

  // Blob layout: the pace count, then subplan 0's pace at byte 8 and the
  // rest of the pace table, the drift ratio, the zero-slack flags, the
  // window position, the event points and five window words; the
  // rederivation count follows. Walk it to find that word's offset.
  constexpr size_t kFirstPace = 8;
  recovery::CheckpointReader walk(blob);
  for (uint64_t i = 0, n = walk.U64(); i < n; ++i) walk.I64();
  walk.F64();
  for (uint64_t i = 0, n = walk.U64(); i < n; ++i) walk.I64();
  walk.I64();
  walk.I64();
  for (uint64_t i = 0, n = walk.U64(); i < n; ++i) {
    walk.I64();
    walk.I64();
  }
  for (int i = 0; i < 5; ++i) walk.I64();
  ASSERT_TRUE(walk.ok());
  const size_t rederivations = blob.size() - walk.remaining();
  auto word = [&blob](size_t offset) {
    recovery::CheckpointReader r(std::string_view(blob).substr(offset, 8));
    return r.I64();
  };
  ASSERT_EQ(word(kFirstPace), 2) << "checkpoint layout moved";
  ASSERT_EQ(word(rederivations), 0) << "checkpoint layout moved";

  const std::vector<std::pair<size_t, int64_t>> patches = {
      {kFirstPace, (int64_t{1} << 32) + 3},
      {kFirstPace, 0},
      {rederivations, -1},
  };
  for (const auto& [offset, value] : patches) {
    recovery::CheckpointWriter pw;
    pw.I64(value);
    std::string bad = blob;
    bad.replace(offset, 8, pw.Take());
    StreamSource src_b;
    ASSERT_TRUE(db.source.CloneTablesInto(&src_b).ok());
    AdaptiveExecutor b(&g, &src_b);
    recovery::CheckpointReader r(bad);
    EXPECT_FALSE(b.Restore(&r).ok())
        << "value " << value << " at byte " << offset;
  }

  // The untouched blob still restores.
  StreamSource src_c;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_c).ok());
  AdaptiveExecutor c(&g, &src_c);
  recovery::CheckpointReader r(blob);
  EXPECT_TRUE(c.Restore(&r).ok()) << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Adaptive executor
// ---------------------------------------------------------------------------

TEST(CrashRecoveryAdaptive, CrashAfterEveryStepIsBitExact) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  SourceFactory factory = MakeFactory(db);
  std::vector<double> abs(2, 1e18);  // generous: no degradation pressure
  AdaptivePolicy policy;

  for (int64_t step = 1; step <= 4; ++step) {
    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.plan = {CrashPhase::kAfterStep, step, 0};
    Result<CrashRunReport> rep = RunCrashRecoveryAdaptive(
        &est, {2, 2, 4}, abs, policy, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ExpectEquivalent(*rep, "adaptive after step " + std::to_string(step));
  }
}

TEST(CrashRecoveryAdaptive, CrashUnderTightConstraintsIsBitExact) {
  // Tight constraints and a burst of half the window's data make the
  // adaptive layer actually adapt (here: drift re-derivations); recovery
  // must replay those decisions identically because they are work-based,
  // never wall-clock.
  TestDb db(/*n_orders=*/200, /*n_customers=*/8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  FaultPlan plan;
  plan.seed = 3;
  plan.events.push_back({FaultEvent::Kind::kBurst, 0.1, 0, 0.5, ""});
  const StreamSource* clean = &db.source;
  SourceFactory factory = [clean, plan]() -> std::unique_ptr<StreamSource> {
    auto src = std::make_unique<PerturbedStreamSource>(plan);
    CHECK(clean->CloneTablesInto(src.get()).ok());
    return src;
  };
  std::vector<double> abs(2, 50.0);  // hard to meet: adaptation kicks in
  AdaptivePolicy policy;

  // A direct run shows the default policy adapts on these inputs.
  {
    std::unique_ptr<StreamSource> src = factory();
    AdaptiveExecutor exec(&est, src.get(), abs, policy);
    Result<AdaptiveRunResult> run = exec.Run({4, 4, 4});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const AdaptationStats& st = run->stats;
    EXPECT_GT(st.skipped_execs + st.catchup_execs + st.rederivations, 0);
  }

  for (int64_t step = 1; step <= 3; ++step) {
    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.plan = {CrashPhase::kAfterStep, step, 0};
    Result<CrashRunReport> rep = RunCrashRecoveryAdaptive(
        &est, {4, 4, 4}, abs, policy, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    ExpectEquivalent(*rep,
                     "adaptive tight after step " + std::to_string(step));
  }
}

// ---------------------------------------------------------------------------
// Parallel kill-points (DESIGN.md §10/§11): crashes landing inside a
// step's parallel execution at four worker threads. The kill fires after
// one wave of the step has executed (and published buffers) while later
// waves never run — recovery must restore a cut that hides the
// half-finished step entirely.
// ---------------------------------------------------------------------------

TEST(CrashRecoveryParallel, MidWaveKillsAreBitExactAtFourThreads) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};
  SourceFactory factory = MakeFactory(db);

  // The shared DAG has two dependency levels ([agg], [root0, root1]); a
  // step that schedules only one level has a single wave, so plans aimed
  // at wave 1 there complete as controls. Both outcomes must match the
  // baseline.
  int crashed_runs = 0;
  for (int64_t step = 1; step <= 4; ++step) {
    for (int wave = 0; wave <= 1; ++wave) {
      MemoryCheckpointStore store;
      CrashRecoveryOptions opts;
      opts.store = &store;
      opts.exec.sched.num_threads = 4;
      opts.plan.phase = CrashPhase::kMidWave;
      opts.plan.step = step;
      opts.plan.wave = wave;
      Result<CrashRunReport> rep =
          RunCrashRecoveryStatic(g, paces, factory, opts);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      if (rep->crashed) ++crashed_runs;
      ExpectEquivalent(*rep, "mid-wave step " + std::to_string(step) +
                                 " wave " + std::to_string(wave));
    }
  }
  // Most plans must actually land mid-step, not degrade to controls.
  EXPECT_GE(crashed_runs, 4);
}

TEST(CrashRecoveryParallel, TornCheckpointWithParallelWavesIsInvisible) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  SourceFactory factory = MakeFactory(db);

  // The stage-then-die kill-point with the window running parallel waves:
  // the torn frame was produced from state built by pool threads and must
  // still be invisible to recovery.
  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.store = &store;
  opts.exec.sched.num_threads = 4;
  opts.plan = {CrashPhase::kBetweenStageAndCommit, 3, 0};
  Result<CrashRunReport> rep =
      RunCrashRecoveryStatic(g, {2, 2, 4}, factory, opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->crashed);
  EXPECT_TRUE(rep->recovered_from_checkpoint);
  EXPECT_EQ(rep->recovered_step, 2);
  ExpectEquivalent(*rep, "parallel torn at step 3");
}

TEST(CrashRecoveryParallel, KillsDuringMorselFanOutAreBitExact) {
  TestDb db(/*n_orders=*/200, /*n_customers=*/8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  SourceFactory factory = MakeFactory(db);

  // The kill interrupts a step whose first level is running on the
  // 4-thread pool.
  for (int64_t step = 2; step <= 3; ++step) {
    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.exec.sched.num_threads = 4;
    opts.plan.phase = CrashPhase::kMidWave;
    opts.plan.step = step;
    opts.plan.wave = 0;
    Result<CrashRunReport> rep =
        RunCrashRecoveryStatic(g, {2, 2, 4}, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    EXPECT_TRUE(rep->crashed) << "step " << step;
    ExpectEquivalent(*rep, "morsel fan-out step " + std::to_string(step));
  }
}

TEST(CrashRecoveryParallel, AdaptiveMidWaveKillIsBitExact) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  SourceFactory factory = MakeFactory(db);
  std::vector<double> abs(2, 1e18);
  AdaptivePolicy policy;

  int crashed_runs = 0;
  for (int64_t step = 1; step <= 4; ++step) {
    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.exec.sched.num_threads = 4;
    opts.plan.phase = CrashPhase::kMidWave;
    opts.plan.step = step;
    opts.plan.wave = 0;
    Result<CrashRunReport> rep = RunCrashRecoveryAdaptive(
        &est, {2, 2, 4}, abs, policy, factory, opts);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    if (rep->crashed) ++crashed_runs;
    ExpectEquivalent(*rep, "adaptive mid-wave step " + std::to_string(step));
  }
  EXPECT_GE(crashed_runs, 2);
}

// ---------------------------------------------------------------------------
// Property test: randomized crash points over many seeds
// ---------------------------------------------------------------------------

TEST(CrashRecoveryProperty, RandomizedCrashPointsMatchUninterruptedRun) {
  TestDb db(/*n_orders=*/100, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  SourceFactory factory = MakeFactory(db);

  constexpr int kSeeds = 120;
  int recovered_runs = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0x5eed0000 + seed);
    // Random pace configuration (and thus schedule length), crash phase,
    // step, subplan, and checkpoint cadence.
    PaceConfig paces = {static_cast<int>(rng.UniformInt(1, 4)),
                        static_cast<int>(rng.UniformInt(1, 4)),
                        static_cast<int>(rng.UniformInt(1, 6))};
    // The subplan with pace k contributes k distinct event points i/k, so
    // the schedule has at least max(paces) steps — a safe range to aim
    // the crash at (plans past the end degrade to no-crash controls).
    int64_t max_steps = *std::max_element(paces.begin(), paces.end());
    CrashPhase phases[] = {CrashPhase::kAfterStep, CrashPhase::kDuringSubplan,
                           CrashPhase::kBetweenStageAndCommit,
                           CrashPhase::kMidWave};
    CrashPlan plan;
    plan.phase = phases[rng.UniformInt(0, 3)];
    plan.step = rng.UniformInt(1, max_steps);
    plan.subplan = static_cast<int>(rng.UniformInt(0, 2));
    plan.wave = static_cast<int>(rng.UniformInt(0, 1));

    MemoryCheckpointStore store;
    CrashRecoveryOptions opts;
    opts.store = &store;
    opts.plan = plan;
    opts.checkpoint.epoch_len = rng.UniformInt(1, 3);
    // Mid-wave kills need the parallel path; other phases mix serial and
    // parallel runs so both spines face every crash shape.
    opts.exec.sched.num_threads =
        (plan.phase == CrashPhase::kMidWave || rng.Bernoulli(0.3)) ? 4 : 1;

    Result<CrashRunReport> rep =
        RunCrashRecoveryStatic(g, paces, factory, opts);
    ASSERT_TRUE(rep.ok()) << "seed " << seed << ": "
                          << rep.status().ToString();
    EXPECT_GE(rep->replayed_deltas, 0);
    if (rep->recovered_from_checkpoint) ++recovered_runs;
    ExpectEquivalent(
        *rep, "seed " + std::to_string(seed) + " phase " +
                  std::to_string(static_cast<int>(plan.phase)) + " step " +
                  std::to_string(plan.step));
  }
  // The property run must actually exercise restore-from-checkpoint, not
  // just clean reruns.
  EXPECT_GT(recovered_runs, kSeeds / 4);
}

// ---------------------------------------------------------------------------
// Crash mid-churn (DESIGN.md §13)
// ---------------------------------------------------------------------------

// Query family for the churn crash cycle: distinct roots over a shared
// orders scan, defined for every id.
QueryPlan ChurnCrashQuery(const Catalog& catalog, QueryId q) {
  PlanBuilder b(&catalog, q);
  PlanNodePtr orders = b.ScanFiltered(
      "orders", Gt(Col("o_amount"), Lit(3.0 * static_cast<double>(q % 4))));
  PlanNodePtr root =
      (q % 2 == 0)
          ? b.Aggregate(orders, {"o_custkey"},
                        {SumAgg(Col("o_amount"), "total")})
          : b.Aggregate(orders, {},
                        {CountAgg("n"), MaxAgg(Col("o_amount"), "mx")});
  return QueryPlan{q, "cc_q" + std::to_string(q), root};
}

// Drives an uninterrupted churn run to its snapshot point: q0-q2 from
// the start, q1 departed at boundary 3, then q5 registered and left
// pending at step 4 of 8.
void DriveToChurnSnapshot(churn::ChurnRuntime* rt) {
  auto drive = [rt](int64_t until) {
    while (rt->HasPendingSteps() &&
           rt->exec()->completed_steps() < until) {
      ASSERT_TRUE(rt->RunStep().ok());
    }
  };
  for (QueryId q : {0, 1, 2}) ASSERT_TRUE(rt->Register(q, 1e18).ok());
  ASSERT_TRUE(rt->BeginWindow(8).ok());
  drive(2);
  ASSERT_TRUE(rt->Deregister(1).ok());
  drive(4);
  ASSERT_EQ(rt->epoch(), 2);
  ASSERT_TRUE(rt->Register(5, 1e18).ok());
  ASSERT_EQ(rt->pending_registrations(), 1);
}

// A churn-epoch-tagged checkpoint taken mid-window — after a departure's
// epoch switch, with a fresh registration still pending ("register, then
// crash") — restored into a fresh runtime over an un-advanced clone of
// the dataset must continue identically to the uninterrupted run:
// same membership, same admission decisions, bit-identical executor
// fingerprints, equivalent drained and live results.
TEST(CrashRecoveryChurn, CrashMidChurnRestoreContinuesBitExact) {
  TestDb db;
  churn::QueryProvider provider = [cat = &db.catalog](QueryId q) {
    return ChurnCrashQuery(*cat, q);
  };

  StreamSource src_a;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_a).ok());
  churn::ChurnRuntime a(&db.catalog, &src_a, provider);
  DriveToChurnSnapshot(&a);
  ASSERT_FALSE(HasFatalFailure());

  recovery::CheckpointWriter w;
  ASSERT_TRUE(a.Snapshot(&w).ok());
  std::string blob = w.Take();

  // "Crash": run B is a fresh runtime over a fresh, un-advanced clone,
  // restored from the churn-epoch-tagged checkpoint.
  StreamSource src_b;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_b).ok());
  churn::ChurnRuntime b(&db.catalog, &src_b, provider);
  recovery::CheckpointReader r(blob);
  ASSERT_TRUE(b.Restore(&r).ok());
  EXPECT_EQ(b.epoch(), a.epoch());
  EXPECT_EQ(b.pending_registrations(), 1);
  EXPECT_EQ(b.exec()->StateFingerprint(), a.exec()->StateFingerprint());

  // Continue both to completion; the pending registration is admitted at
  // the same boundary with the same (unshared-fallback) decision.
  while (a.HasPendingSteps()) ASSERT_TRUE(a.RunStep().ok());
  while (b.HasPendingSteps()) ASSERT_TRUE(b.RunStep().ok());
  ASSERT_TRUE(a.FinishWindow().ok());
  ASSERT_TRUE(b.FinishWindow().ok());

  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.live_queries().ToString(), b.live_queries().ToString());
  EXPECT_EQ(a.IsUnshared(5), b.IsUnshared(5));
  EXPECT_EQ(a.stats().registrations, b.stats().registrations);
  EXPECT_EQ(a.stats().deregistrations, b.stats().deregistrations);
  EXPECT_EQ(a.stats().epochs, b.stats().epochs);
  EXPECT_EQ(a.exec()->StateFingerprint(), b.exec()->StateFingerprint());

  auto drained_a = a.DrainedResult(1);
  auto drained_b = b.DrainedResult(1);
  ASSERT_TRUE(drained_a.ok());
  ASSERT_TRUE(drained_b.ok());
  EXPECT_TRUE(ResultsNear(*drained_a, *drained_b));
  for (QueryId q : a.live_queries().ToIds()) {
    auto ra = a.LiveResult(q);
    auto rb = b.LiveResult(q);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_TRUE(ResultsNear(*ra, *rb)) << "query " << q;
  }
}

// A checkpoint whose pending registration carries an id Register would
// refuse, or a negative retry state, fails its restore instead of
// aborting the process at the next epoch switch.
TEST(CrashRecoveryChurn, RestoreRejectsMalformedPendingRegistration) {
  TestDb db;
  churn::QueryProvider provider = [cat = &db.catalog](QueryId q) {
    return ChurnCrashQuery(*cat, q);
  };
  StreamSource src_a;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_a).ok());
  churn::ChurnRuntime a(&db.catalog, &src_a, provider);
  DriveToChurnSnapshot(&a);
  ASSERT_FALSE(HasFatalFailure());
  recovery::CheckpointWriter w;
  ASSERT_TRUE(a.Snapshot(&w).ok());
  const std::string blob = w.Take();

  // Blob layout: three header words, the live count, two live entries of
  // three words, the pending count, then the pending entry (id,
  // constraint, unshared flag, attempts, retry_at), 8 bytes per word.
  constexpr size_t kPendingId = 88;
  constexpr size_t kAttempts = kPendingId + 24;
  constexpr size_t kRetryAt = kPendingId + 32;
  recovery::CheckpointReader id_reader(
      std::string_view(blob).substr(kPendingId, 8));
  ASSERT_EQ(id_reader.I64(), 5) << "checkpoint layout moved";

  const std::pair<size_t, int64_t> patches[] = {
      {kPendingId, int64_t{1} << 20},
      {kPendingId, -3},
      {kAttempts, -1},
      {kRetryAt, -1},
  };
  for (const auto& [offset, value] : patches) {
    recovery::CheckpointWriter pw;
    pw.I64(value);
    std::string bad = blob;
    bad.replace(offset, 8, pw.Take());
    StreamSource src_b;
    ASSERT_TRUE(db.source.CloneTablesInto(&src_b).ok());
    churn::ChurnRuntime b(&db.catalog, &src_b, provider);
    recovery::CheckpointReader r(bad);
    EXPECT_FALSE(b.Restore(&r).ok())
        << "value " << value << " at byte " << offset;
  }
}

// A checkpoint whose max pace or pace-table entry is below 1 fails its
// restore instead of aborting the process in the next epoch switch's
// warm-started pace search.
TEST(CrashRecoveryChurn, RestoreRejectsMalformedPaces) {
  TestDb db;
  churn::QueryProvider provider = [cat = &db.catalog](QueryId q) {
    return ChurnCrashQuery(*cat, q);
  };
  StreamSource src_a;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_a).ok());
  churn::ChurnRuntime a(&db.catalog, &src_a, provider);
  DriveToChurnSnapshot(&a);
  ASSERT_FALSE(HasFatalFailure());
  recovery::CheckpointWriter w;
  ASSERT_TRUE(a.Snapshot(&w).ok());
  const std::string blob = w.Take();

  // Blob layout: epoch, next id and max pace are the first three words;
  // after the live and pending entries (RestoreRejectsMalformedPending-
  // Registration) and an empty deregistration list come the pace count
  // and the pace table, 8 bytes per word.
  constexpr size_t kMaxPace = 16;
  constexpr size_t kPaceCount = 136;
  constexpr size_t kFirstPace = 144;
  auto word = [&blob](size_t offset) {
    recovery::CheckpointReader r(std::string_view(blob).substr(offset, 8));
    return r.I64();
  };
  ASSERT_EQ(word(kMaxPace), 8) << "checkpoint layout moved";
  ASSERT_EQ(word(kPaceCount), a.graph()->num_subplans())
      << "checkpoint layout moved";
  ASSERT_GE(word(kFirstPace), 1) << "checkpoint layout moved";

  for (size_t offset : {kMaxPace, kFirstPace}) {
    for (int64_t value : {int64_t{0}, int64_t{-1}}) {
      recovery::CheckpointWriter pw;
      pw.I64(value);
      std::string bad = blob;
      bad.replace(offset, 8, pw.Take());
      StreamSource src_b;
      ASSERT_TRUE(db.source.CloneTablesInto(&src_b).ok());
      churn::ChurnRuntime b(&db.catalog, &src_b, provider);
      recovery::CheckpointReader r(bad);
      EXPECT_FALSE(b.Restore(&r).ok())
          << "value " << value << " at byte " << offset;
    }
  }
}

}  // namespace
}  // namespace ishare
