// Crash/recovery equivalence tests (DESIGN.md §8): a seeded crash at any
// step, in any phase (after a step, mid-step, or between checkpoint stage
// and commit), followed by restore-from-checkpoint and delta replay, must
// reproduce the uninterrupted run bit for bit — per-query output logs,
// executor state fingerprints, work totals, and missed-deadline counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ishare/churn/churn_runtime.h"
#include "ishare/common/rng.h"
#include "ishare/cost/estimator.h"
#include "ishare/harness/crash_harness.h"
#include "ishare/recovery/checkpoint_store.h"
#include "test_util.h"

namespace ishare {
namespace {

using recovery::MemoryCheckpointStore;

// The shared DAG engine tests use everywhere: an aggregate feeding two
// query roots (3 subplans), giving multi-consumer buffers and a step
// schedule with both shared and private event points.
std::vector<QueryPlan> MakeSharedDag(const Catalog& catalog) {
  QuerySet both = QuerySet::FromIds({0, 1});
  PlanNodePtr scan = PlanNode::MakeScan(catalog, "orders", both);
  std::map<QueryId, ExprPtr> preds;
  preds[1] = Gt(Col("o_amount"), Lit(50.0));
  PlanNodePtr filt = PlanNode::MakeFilter(scan, std::move(preds), both);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      filt, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, both);
  PlanNodePtr root0 = PlanNode::MakeProject(
      agg, {{Col("o_custkey"), "k"}, {Col("total"), "total"}},
      QuerySet::Single(0));
  PlanNodePtr root1 = PlanNode::MakeAggregate(
      agg, {}, {MaxAgg(Col("total"), "max_total")}, QuerySet::Single(1));
  return {QueryPlan{0, "q0", root0}, QueryPlan{1, "q1", root1}};
}

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
  EXPECT_TRUE(rep.deadlines_identical) << where << ": " << rep.mismatch;
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

TEST(CrashRecoveryStatic, DeadlineCountsSurviveRecovery) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  SourceFactory factory = MakeFactory(db);

  // Goals straddling the actual final work: one query misses, one meets.
  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.store = &store;
  opts.plan = {CrashPhase::kAfterStep, 3, 0};
  opts.final_work_goals = {1e-3, 1e12};
  Result<CrashRunReport> rep =
      RunCrashRecoveryStatic(g, {2, 2, 4}, factory, opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->baseline_deadlines_missed, 1);
  EXPECT_EQ(rep->recovered_deadlines_missed, 1);
  ExpectEquivalent(*rep, "deadline goals");
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
  // Tight constraints make the adaptive layer actually adapt (skips,
  // catch-ups, possibly re-derivations); recovery must replay those
  // decisions identically because they are work-based, never wall-clock.
  TestDb db(/*n_orders=*/200, /*n_customers=*/8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  SourceFactory factory = MakeFactory(db);
  std::vector<double> abs(2, 50.0);  // hard to meet: adaptation kicks in
  AdaptivePolicy policy;
  policy.min_drift_samples = 1;

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
  auto drive = [&](churn::ChurnRuntime* rt, int64_t until) {
    while (rt->HasPendingSteps() &&
           rt->exec()->completed_steps() < until) {
      ASSERT_TRUE(rt->RunStep().ok());
    }
  };

  // Uninterrupted run A: departure at boundary 3, then a registration
  // left pending at the snapshot point (step 4 of 8).
  StreamSource src_a;
  ASSERT_TRUE(db.source.CloneTablesInto(&src_a).ok());
  churn::ChurnRuntime a(&db.catalog, &src_a, provider);
  for (QueryId q : {0, 1, 2}) ASSERT_TRUE(a.Register(q, 1e18).ok());
  ASSERT_TRUE(a.BeginWindow(8).ok());
  drive(&a, 2);
  ASSERT_TRUE(a.Deregister(1).ok());
  drive(&a, 4);
  ASSERT_EQ(a.epoch(), 2);
  ASSERT_TRUE(a.Register(5, 1e18).ok());
  ASSERT_EQ(a.pending_registrations(), 1);

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

}  // namespace
}  // namespace ishare
