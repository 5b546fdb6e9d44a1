// Chaos orchestration tests (DESIGN.md §11): circuit breakers, the
// unified failure-reaction policy, deterministic fault schedules, the
// cross-layer injector, the Supervisor's degradation ladder, and the
// chaos harness gates — including a many-seed composed-fault sweep and a
// fault-concurrent crash/recovery cycle at four threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ishare/chaos/breaker.h"
#include "ishare/chaos/fault_schedule.h"
#include "ishare/chaos/supervisor.h"
#include "ishare/cost/estimator.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/harness/chaos_harness.h"
#include "ishare/harness/result_compare.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"
#include "test_util.h"

namespace ishare {
namespace {

using chaos::BreakerOptions;
using chaos::BreakerState;
using chaos::BreakerTransition;
using chaos::ChaosEvent;
using chaos::ChaosInjector;
using chaos::ChaosLayer;
using chaos::ChaosScheduleOptions;
using chaos::CircuitBreaker;
using chaos::ClassifyFailure;
using chaos::FaultSchedule;
using chaos::Reaction;
using chaos::ServiceLevel;
using chaos::Supervisor;
using recovery::CheckpointManager;
using recovery::CheckpointManagerOptions;
using recovery::MemoryCheckpointStore;

// Minimal Checkpointable for scripted Supervisor scenarios.
class MiniState : public recovery::Checkpointable {
 public:
  Status Snapshot(recovery::CheckpointWriter* w) const override {
    w->I64(value);
    return Status::OK();
  }
  Status Restore(recovery::CheckpointReader* r) override {
    value = r->I64();
    return r->status();
  }
  int64_t value = 0;
};

// ---------------------------------------------------------------------------
// Circuit breaker state machine
// ---------------------------------------------------------------------------

TEST(ChaosBreaker, TripsAfterConsecutiveFailuresThenRecovers) {
  CircuitBreaker b("test", BreakerOptions{/*failure_threshold=*/2,
                                          /*open_steps=*/2,
                                          /*success_threshold=*/2});
  EXPECT_EQ(b.StateAt(1), BreakerState::kClosed);
  b.RecordFailure(1, "boom");
  EXPECT_EQ(b.StateAt(1), BreakerState::kClosed);  // below threshold
  b.RecordSuccess(2);                              // resets the streak
  b.RecordFailure(3, "boom");
  EXPECT_EQ(b.StateAt(3), BreakerState::kClosed);
  b.RecordFailure(4, "boom");  // second consecutive failure: trip
  EXPECT_EQ(b.StateAt(4), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1);
  EXPECT_FALSE(b.AllowRequest(5));  // cooldown (2 steps) not elapsed
  EXPECT_EQ(b.StateAt(6), BreakerState::kHalfOpen);  // lazy promotion
  EXPECT_TRUE(b.AllowRequest(6));
  b.RecordSuccess(6);
  EXPECT_EQ(b.StateAt(6), BreakerState::kHalfOpen);  // 1 < threshold 2
  b.RecordSuccess(7);
  EXPECT_EQ(b.StateAt(7), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 1);

  ASSERT_EQ(b.transitions().size(), 3u);
  EXPECT_EQ(b.transitions()[0].to, BreakerState::kOpen);
  EXPECT_EQ(b.transitions()[0].step, 4);
  EXPECT_EQ(b.transitions()[0].cause, "boom");
  EXPECT_EQ(b.transitions()[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(b.transitions()[1].step, 6);
  EXPECT_EQ(b.transitions()[2].to, BreakerState::kClosed);
  EXPECT_EQ(b.transitions()[2].step, 7);
  for (const BreakerTransition& t : b.transitions()) {
    EXPECT_EQ(t.breaker, "test");
  }
}

TEST(ChaosBreaker, HalfOpenFailureReTripsImmediately) {
  CircuitBreaker b("test", BreakerOptions{2, 2, 2});
  b.RecordFailure(1, "x");
  b.RecordFailure(2, "x");  // open at step 2
  EXPECT_EQ(b.StateAt(4), BreakerState::kHalfOpen);
  // Hysteresis: recovery needs success_threshold proofs, failure only one.
  b.RecordFailure(4, "still down");
  EXPECT_EQ(b.StateAt(4), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 2);
  EXPECT_EQ(b.StateAt(5), BreakerState::kOpen);  // cooldown restarted at 4
  EXPECT_EQ(b.StateAt(6), BreakerState::kHalfOpen);
}

TEST(ChaosBreaker, HalfOpenSuccessStreakIsResetByReTrip) {
  CircuitBreaker b("test", BreakerOptions{1, 1, 2});
  b.RecordFailure(1, "x");  // open at 1
  EXPECT_EQ(b.StateAt(2), BreakerState::kHalfOpen);
  b.RecordSuccess(2);       // one of two needed
  b.RecordFailure(3, "x");  // re-trip discards the partial streak
  EXPECT_EQ(b.StateAt(4), BreakerState::kHalfOpen);
  b.RecordSuccess(4);
  EXPECT_EQ(b.StateAt(4), BreakerState::kHalfOpen);  // streak restarted
  b.RecordSuccess(5);
  EXPECT_EQ(b.StateAt(5), BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Failure classification (the policy spine)
// ---------------------------------------------------------------------------

TEST(ChaosPolicy, ClassifyFailureFollowsTheStatusTaxonomy) {
  EXPECT_EQ(ClassifyFailure(Status::Unavailable("blip")), Reaction::kRetry);
  EXPECT_EQ(ClassifyFailure(Status::ResourceExhausted("full")),
            Reaction::kDefer);
  EXPECT_EQ(ClassifyFailure(Status::DataLoss("torn")), Reaction::kDegrade);
  EXPECT_EQ(ClassifyFailure(Status::Internal("bug")), Reaction::kFail);
  EXPECT_EQ(ClassifyFailure(Status::NotFound("gone")), Reaction::kFail);
}

// ---------------------------------------------------------------------------
// Fault schedules: determinism and validation
// ---------------------------------------------------------------------------

TEST(ChaosSchedule, RandomIsDeterministicInTheSeed) {
  std::vector<std::string> tables = {"orders", "customer"};
  FaultSchedule a = FaultSchedule::Random(11, {}, tables);
  FaultSchedule b = FaultSchedule::Random(11, {}, tables);
  EXPECT_EQ(a.ToString(), b.ToString());
  FaultSchedule c = FaultSchedule::Random(12, {}, tables);
  EXPECT_NE(a.ToString(), c.ToString());
  for (uint64_t seed = 0; seed < 64; ++seed) {
    FaultSchedule s = FaultSchedule::Random(seed, {}, tables);
    EXPECT_TRUE(s.Validate().ok()) << "seed " << seed << ": " << s.ToString();
  }
}

TEST(ChaosSchedule, ValidateRejectsMalformedEvents) {
  FaultSchedule ok;
  ok.events = {{ChaosLayer::kStoreTransient, 1, -1, 0}};  // -1 = forever
  EXPECT_TRUE(ok.Validate().ok());

  FaultSchedule step0;
  step0.events = {{ChaosLayer::kBufferStorm, 0, 1, 0}};
  EXPECT_FALSE(step0.Validate().ok());

  FaultSchedule count0;
  count0.events = {{ChaosLayer::kStoreTransient, 1, 0, 0}};
  EXPECT_FALSE(count0.Validate().ok());

  FaultSchedule negmag;
  negmag.events = {{ChaosLayer::kMemoryPressure, 1, 1, -0.5}};
  EXPECT_FALSE(negmag.Validate().ok());
}

// ---------------------------------------------------------------------------
// Injector: per-layer application against live components
// ---------------------------------------------------------------------------

TEST(ChaosInjectorTest, PressureSpikesRaiseTheBudgetThenRetire) {
  flow::MemoryBudget budget(1000);
  FaultSchedule sched;
  // 0.5 * budget = 500 phantom bytes, held for steps 1 and 2.
  sched.events = {{ChaosLayer::kMemoryPressure, 1, 2, 0.5}};
  ChaosInjector::Targets targets;
  targets.budget = &budget;
  ChaosInjector inj(sched, targets);

  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  EXPECT_EQ(budget.used(), 500);
  ASSERT_TRUE(inj.OnStepBoundary(1).ok());
  EXPECT_EQ(budget.used(), 500);  // until_step = 2 has not completed
  ASSERT_TRUE(inj.OnStepBoundary(2).ok());
  EXPECT_EQ(budget.used(), 0);  // spike retired

  EXPECT_TRUE(inj.AnyInjected(ChaosLayer::kMemoryPressure, 1));
  EXPECT_FALSE(inj.AnyInjected(ChaosLayer::kMemoryPressure, 0));
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].step, 1);
}

TEST(ChaosInjectorTest, StoreTransientEventsArmWriteFaults) {
  MemoryCheckpointStore store;
  FaultSchedule sched;
  sched.events = {{ChaosLayer::kStoreTransient, 1, 2, 0}};
  ChaosInjector::Targets targets;
  targets.store = &store;
  ChaosInjector inj(sched, targets);

  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  EXPECT_FALSE(store.Stage(1, "frame").ok());
  EXPECT_FALSE(store.Stage(1, "frame").ok());
  EXPECT_TRUE(store.Stage(1, "frame").ok());  // fault count exhausted
  EXPECT_TRUE(store.Commit(1).ok());
  EXPECT_TRUE(inj.AnyInjected(ChaosLayer::kStoreTransient, 1));
}

TEST(ChaosInjectorTest, BitRotCorruptsTheNewestCommittedEpoch) {
  MemoryCheckpointStore store;
  ASSERT_TRUE(store.Stage(3, "good frame").ok());
  ASSERT_TRUE(store.Commit(3).ok());
  FaultSchedule sched;
  sched.events = {{ChaosLayer::kStoreBitRot, 1, 1, 0}};
  ChaosInjector::Targets targets;
  targets.store = &store;
  ChaosInjector inj(sched, targets);

  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  Result<std::string> frame = store.Load(3);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(*frame, "chaos-bit-rot-garbage");
  EXPECT_TRUE(inj.AnyInjected(ChaosLayer::kStoreBitRot, 1));
}

TEST(ChaosInjectorTest, BitRotWithNothingCommittedIsNotLogged) {
  MemoryCheckpointStore store;
  FaultSchedule sched;
  sched.events = {{ChaosLayer::kStoreBitRot, 1, 1, 0}};
  ChaosInjector::Targets targets;
  targets.store = &store;
  ChaosInjector inj(sched, targets);
  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  EXPECT_TRUE(inj.log().empty());  // no rot planted, no attribution claim
}

TEST(ChaosInjectorTest, MissingTargetsAreSkippedNotLogged) {
  FaultSchedule sched;
  sched.events = {{ChaosLayer::kBufferStorm, 1, 2, 0},
                  {ChaosLayer::kStoreTransient, 1, 2, 0},
                  {ChaosLayer::kStoreBitRot, 1, 1, 0},
                  {ChaosLayer::kMemoryPressure, 1, 2, 0.5},
                  {ChaosLayer::kWorkerStall, 1, 4, 0.001}};
  ChaosInjector inj(sched, ChaosInjector::Targets{});
  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  ASSERT_TRUE(inj.OnStepBoundary(1).ok());
  EXPECT_TRUE(inj.log().empty());
  EXPECT_FALSE(inj.AnyInjected(ChaosLayer::kBufferStorm, 2));
}

TEST(ChaosInjectorTest, BufferStormsAreAbsorbedByTheConsumeRetrySpine) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};

  StreamSource clean;
  ASSERT_TRUE(db.source.CloneTablesInto(&clean).ok());
  AdaptiveExecutor ref(&g, &clean);
  ASSERT_TRUE(ref.Run(paces).ok());

  StreamSource stormy;
  ASSERT_TRUE(db.source.CloneTablesInto(&stormy).ok());
  AdaptiveExecutor exec(&g, &stormy);
  FaultSchedule sched;
  // Two storms of 2 faults per base buffer: below the consume-retry
  // budget (4 attempts), so both must be absorbed invisibly.
  sched.events = {{ChaosLayer::kBufferStorm, 1, 2, 0},
                  {ChaosLayer::kBufferStorm, 3, 2, 0}};
  ChaosInjector::Targets targets;
  targets.source = &stormy;
  ChaosInjector inj(sched, targets);
  exec.set_after_step_hook(
      [&inj](int64_t step) { return inj.OnStepBoundary(step); });
  ASSERT_TRUE(exec.BeginWindow(paces).ok());
  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  Result<AdaptiveRunResult> run = exec.ResumeWindow();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(inj.log().size(), 2u);
  for (QueryId q = 0; q < 2; ++q) {
    EXPECT_TRUE(ResultsEquivalent(MaterializeResult(*ref.query_output(q), q),
                                  MaterializeResult(*exec.query_output(q), q)))
        << "query " << q;
  }
}

TEST(ChaosWorkerStall, InjectedStallsNeverChangeParallelResults) {
  TestDb db(/*n_orders=*/200, /*n_customers=*/8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};

  StreamSource serial_src;
  ASSERT_TRUE(db.source.CloneTablesInto(&serial_src).ok());
  AdaptiveExecutor serial(&g, &serial_src);
  ASSERT_TRUE(serial.Run(paces).ok());

  StreamSource par_src;
  ASSERT_TRUE(db.source.CloneTablesInto(&par_src).ok());
  ExecOptions opts;
  opts.sched.num_threads = 4;
  AdaptiveExecutor exec(&g, &par_src, opts);
  ASSERT_NE(exec.worker_pool(), nullptr);

  FaultSchedule sched;
  sched.events = {{ChaosLayer::kWorkerStall, 1, 8, 0.0005},
                  {ChaosLayer::kWorkerStall, 3, 4, 0.001}};
  ChaosInjector::Targets targets;
  targets.pool = exec.worker_pool();
  ChaosInjector inj(sched, targets);
  exec.set_after_step_hook(
      [&inj](int64_t step) { return inj.OnStepBoundary(step); });
  ASSERT_TRUE(exec.BeginWindow(paces).ok());
  ASSERT_TRUE(inj.OnStepBoundary(0).ok());
  Result<AdaptiveRunResult> run = exec.ResumeWindow();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(inj.log().size(), 2u);
  // Stragglers reorder wall-clock completion, never observable state.
  EXPECT_EQ(serial.StateFingerprint(), exec.StateFingerprint());
  for (QueryId q = 0; q < 2; ++q) {
    EXPECT_TRUE(
        ResultsEquivalent(MaterializeResult(*serial.query_output(q), q),
                          MaterializeResult(*exec.query_output(q), q)))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Supervisor: scripted scenarios over the policy spine
// ---------------------------------------------------------------------------

// The scripted scenarios run the Supervisor's fixed policy: the
// checkpoint breaker trips after 2 failed boundaries, stays open 4 steps
// and closes after 2 half-open successes; half-open probes every 2nd due
// boundary; the 4th trip safe-stops. Every step is an epoch boundary, and
// a failed boundary spends the manager's 4 store attempts, so a fault
// armed with times = 4k fails k boundaries.

TEST(ChaosSupervisor, RepeatedReTripsEscalateToSafeStop) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 1;
  mopts.overhead_budget = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);
  store.InjectWriteFault(Status::Unavailable("store down"), /*times=*/-1);

  MiniState state;
  for (int64_t step = 1; step <= 16; ++step) {
    state.value = step;
    ASSERT_TRUE(sup.OnStepComplete(step, state).ok());
  }
  // Fail@1, fail@2 → trip 1; each half-open probe (steps 6, 10, 14) fails
  // and re-trips, the open boundaries between them are skipped, and the
  // 4th trip at step 14 stops feeding the proven-bad store.
  EXPECT_TRUE(sup.safe_stopped());
  EXPECT_EQ(sup.level(), ServiceLevel::kSafeStop);
  EXPECT_EQ(sup.stats().safe_stops, 1);
  EXPECT_EQ(sup.stats().checkpoint_failures, 5);
  EXPECT_EQ(sup.stats().checkpoints_skipped_open, 9);
  EXPECT_EQ(sup.checkpoint_breaker().trips(), 4);
  EXPECT_EQ(mgr.stats().checkpoints, 0);
  EXPECT_EQ(mgr.stats().last_commit_epoch, 0);

  std::vector<int64_t> trip_steps;
  for (const BreakerTransition& t : sup.breaker_transitions()) {
    if (t.to == BreakerState::kOpen) trip_steps.push_back(t.step);
  }
  EXPECT_EQ(trip_steps, (std::vector<int64_t>{2, 6, 10, 14}));

  ASSERT_EQ(sup.ladder_log().size(), 2u);
  EXPECT_EQ(sup.ladder_log()[0].to, ServiceLevel::kCheckpointDegraded);
  EXPECT_EQ(sup.ladder_log()[0].step, 2);
  EXPECT_EQ(sup.ladder_log()[1].to, ServiceLevel::kSafeStop);
  EXPECT_EQ(sup.ladder_log()[1].step, 14);
}

TEST(ChaosSupervisor, BreakerRecoveryRestoresFullService) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 1;
  mopts.overhead_budget = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);
  store.InjectWriteFault(Status::Unavailable("flaky store"), /*times=*/8);

  MiniState state;
  for (int64_t step = 1; step <= 9; ++step) {
    state.value = step;
    ASSERT_TRUE(sup.OnStepComplete(step, state).ok());
  }
  // Fail@1, fail@2 → trip; open skips steps 3-5 (track-only fallback);
  // half-open probes succeed at 6 and 8 (7 is stretched away) → closed,
  // full service again, and step 9 checkpoints at the normal cadence.
  EXPECT_EQ(sup.level(), ServiceLevel::kFull);
  EXPECT_FALSE(sup.safe_stopped());
  EXPECT_EQ(sup.checkpoint_breaker().trips(), 1);
  EXPECT_EQ(sup.stats().checkpoint_failures, 2);
  EXPECT_EQ(sup.stats().checkpoints_skipped_open, 3);
  EXPECT_EQ(sup.stats().checkpoints_stretched, 1);
  EXPECT_EQ(mgr.stats().checkpoints, 3);  // steps 6, 8 and 9
  EXPECT_EQ(mgr.stats().last_commit_epoch, 9);
  EXPECT_EQ(mgr.stats().consecutive_failures, 0);

  std::vector<BreakerTransition> trans = sup.breaker_transitions();
  ASSERT_EQ(trans.size(), 3u);
  EXPECT_EQ(trans[0].to, BreakerState::kOpen);
  EXPECT_EQ(trans[0].step, 2);
  EXPECT_EQ(trans[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(trans[1].step, 6);
  EXPECT_EQ(trans[2].to, BreakerState::kClosed);
  EXPECT_EQ(trans[2].step, 8);

  ASSERT_EQ(sup.ladder_log().size(), 2u);
  EXPECT_EQ(sup.ladder_log()[0].to, ServiceLevel::kCheckpointDegraded);
  EXPECT_EQ(sup.ladder_log()[0].step, 2);
  EXPECT_EQ(sup.ladder_log()[1].to, ServiceLevel::kFull);
  EXPECT_EQ(sup.ladder_log()[1].step, 8);
}

TEST(ChaosSupervisor, HalfOpenCadenceStretchSkipsProbes) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 1;
  mopts.overhead_budget = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);
  store.InjectWriteFault(Status::Unavailable("outage"), /*times=*/8);

  MiniState state;
  for (int64_t step = 1; step <= 8; ++step) {
    state.value = step;
    ASSERT_TRUE(sup.OnStepComplete(step, state).ok());
  }
  // Trip@2, half-open from step 6: probes at 6 (success) and 8 (success →
  // closed), while the boundary at 7 is stretched away without touching
  // the store.
  EXPECT_EQ(sup.level(), ServiceLevel::kFull);
  EXPECT_EQ(sup.stats().checkpoints_stretched, 1);
  EXPECT_EQ(sup.checkpoint_breaker().trips(), 1);
  EXPECT_EQ(mgr.stats().checkpoints, 2);
  EXPECT_EQ(store.CommittedEpochs(), (std::vector<int64_t>{6, 8}));
}

TEST(ChaosSupervisor, PermanentStoreErrorSafeStopsWithoutTripping) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 1;
  mopts.overhead_budget = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);
  // Internal = permanent: never retried, classified kFail.
  store.InjectWriteFault(Status::Internal("disk gone"), /*times=*/-1);

  MiniState state;
  ASSERT_TRUE(sup.OnStepComplete(1, state).ok());
  EXPECT_TRUE(sup.safe_stopped());
  EXPECT_EQ(sup.level(), ServiceLevel::kSafeStop);
  EXPECT_EQ(sup.checkpoint_breaker().trips(), 0);
  EXPECT_EQ(sup.stats().safe_stops, 1);
  // After safe-stop the store is never touched again.
  ASSERT_TRUE(sup.OnStepComplete(2, state).ok());
  EXPECT_EQ(sup.stats().checkpoint_failures, 1);
}

TEST(ChaosSupervisor, SourceStallsEnterCatchUpModeAndDeferCheckpoints) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 1;
  mopts.overhead_budget = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);  // source breaker {2, 2, 2}

  MiniState state;
  sup.ObserveSourceProgress(1, 0.25, 0.2);  // data flowing
  ASSERT_TRUE(sup.OnStepComplete(1, state).ok());
  sup.ObserveSourceProgress(2, 0.5, 0.2);  // window moved, data stuck
  ASSERT_TRUE(sup.OnStepComplete(2, state).ok());
  sup.ObserveSourceProgress(3, 0.75, 0.2);  // second stall → trip
  ASSERT_TRUE(sup.OnStepComplete(3, state).ok());

  EXPECT_EQ(sup.stats().stall_observations, 2);
  EXPECT_EQ(sup.source_breaker().trips(), 1);
  // Catch-up mode: the step-3 boundary yields to backlog draining.
  EXPECT_EQ(sup.stats().catchup_deferred, 1);
  EXPECT_EQ(sup.level(), ServiceLevel::kDeferred);
  EXPECT_EQ(mgr.stats().checkpoints, 2);  // steps 1 and 2 still persisted
}

TEST(ChaosSupervisor, SustainedPressureWalksTheLadderDownAndBack) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 0;  // isolate the memory axis
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);  // memory breaker {3, 2, 2}

  MiniState state;
  for (int64_t step = 1; step <= 3; ++step) {
    sup.ObserveMemoryPressure(step, 0.96);
    ASSERT_TRUE(sup.OnStepComplete(step, state).ok());
  }
  EXPECT_EQ(sup.memory_breaker().trips(), 1);
  EXPECT_EQ(sup.stats().pressure_observations, 3);
  EXPECT_EQ(sup.level(), ServiceLevel::kShed);

  // Pressure recedes: open → half-open (reported as deferred) → closed.
  sup.ObserveMemoryPressure(4, 0.1);
  ASSERT_TRUE(sup.OnStepComplete(4, state).ok());
  EXPECT_EQ(sup.level(), ServiceLevel::kShed);  // cooldown not elapsed
  sup.ObserveMemoryPressure(5, 0.1);
  ASSERT_TRUE(sup.OnStepComplete(5, state).ok());
  EXPECT_EQ(sup.level(), ServiceLevel::kDeferred);
  sup.ObserveMemoryPressure(6, 0.1);
  ASSERT_TRUE(sup.OnStepComplete(6, state).ok());
  EXPECT_EQ(sup.level(), ServiceLevel::kFull);

  ASSERT_EQ(sup.ladder_log().size(), 3u);
  EXPECT_EQ(sup.ladder_log()[0].to, ServiceLevel::kShed);
  EXPECT_EQ(sup.ladder_log()[1].to, ServiceLevel::kDeferred);
  EXPECT_EQ(sup.ladder_log()[2].to, ServiceLevel::kFull);
}

TEST(ChaosSupervisor, FlowDeltasDriveDeferAndDropSignals) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions mopts;
  mopts.epoch_len = 0;
  CheckpointManager mgr(&store, mopts);
  Supervisor sup(&mgr);

  MiniState state;
  flow::FlowStats f;
  f.shed_deferred = 2;
  f.backpressure_events = 1;
  sup.ObserveFlow(1, f);
  ASSERT_TRUE(sup.OnStepComplete(1, state).ok());
  EXPECT_EQ(sup.stats().defer_signals, 3);
  EXPECT_EQ(sup.level(), ServiceLevel::kDeferred);

  sup.ObserveFlow(2, f);  // cumulative ledger unchanged: quiet step
  ASSERT_TRUE(sup.OnStepComplete(2, state).ok());
  EXPECT_EQ(sup.level(), ServiceLevel::kFull);

  f.dropped_tuples = 5;
  sup.ObserveFlow(3, f);
  ASSERT_TRUE(sup.OnStepComplete(3, state).ok());
  EXPECT_EQ(sup.stats().drop_signals, 5);
  EXPECT_EQ(sup.level(), ServiceLevel::kShed);

  sup.ObserveFlow(4, f);
  ASSERT_TRUE(sup.OnStepComplete(4, state).ok());
  EXPECT_EQ(sup.level(), ServiceLevel::kFull);
}

// ---------------------------------------------------------------------------
// Chaos harness: composed schedules through the supervised executor
// ---------------------------------------------------------------------------

TEST(ChaosHarness, FaultFreeScheduleStaysAtFullService) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {2, 2, 4};
  std::vector<double> abs = TightLooseConstraints(&est, paces);

  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, FaultSchedule{}, ChaosOptions{});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->AllGatesPass()) << rep->mismatch;
  EXPECT_EQ(rep->final_level, ServiceLevel::kFull);
  EXPECT_TRUE(rep->injections.empty());
  EXPECT_TRUE(rep->breakers.empty());
  EXPECT_GE(rep->recovery.checkpoints, 2);  // boundaries at steps 2 and 4
  EXPECT_GT(rep->peak_baseline, 0);
  EXPECT_GT(rep->budget_bytes, rep->peak_baseline);
  EXPECT_EQ(rep->flow.dropped_tuples, 0);
}

TEST(ChaosHarness, ComposedScheduleTripsCheckpointBreakerAndPasses) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {2, 2, 4};
  std::vector<double> abs = TightLooseConstraints(&est, paces);

  FaultSchedule sched;
  sched.seed = 42;
  // Admission storm (absorbed), a store outage outlasting both epoch
  // boundaries' retry budgets (trips the breaker), and a pressure spike.
  sched.events = {{ChaosLayer::kBufferStorm, 1, 2, 0},
                  {ChaosLayer::kStoreTransient, 2, 8, 0},
                  {ChaosLayer::kMemoryPressure, 3, 2, 1.2}};

  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->AllGatesPass()) << rep->mismatch;
  ASSERT_EQ(rep->initial_slack.size(), 2u);
  EXPECT_LE(rep->initial_slack[0], 1e-9);  // q0 pinned at zero slack
  EXPECT_EQ(rep->flow.shed_total(0), 0);
  EXPECT_GE(rep->supervisor.checkpoint_failures, 2);
  EXPECT_GE(rep->supervisor.pressure_observations, 1);
  EXPECT_FALSE(rep->injections.empty());
  EXPECT_NE(rep->final_level, ServiceLevel::kFull);

  bool checkpoint_tripped = false;
  for (const BreakerTransition& t : rep->breakers) {
    if (t.breaker == "checkpoint" && t.to == BreakerState::kOpen) {
      checkpoint_tripped = true;
    }
  }
  EXPECT_TRUE(checkpoint_tripped);
}

TEST(ChaosHarness, SustainedPressureShedsOnlySlackQueries) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {2, 2, 4};
  std::vector<double> abs = TightLooseConstraints(&est, paces);

  FaultSchedule sched;
  sched.events = {{ChaosLayer::kMemoryPressure, 1, 4, 1.5}};

  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->AllGatesPass()) << rep->mismatch;
  EXPECT_EQ(rep->flow.shed_total(0), 0);  // zero-slack query untouched
  EXPECT_GE(rep->supervisor.pressure_observations, 3);
  EXPECT_EQ(rep->final_level, ServiceLevel::kShed);

  bool memory_tripped = false;
  for (const BreakerTransition& t : rep->breakers) {
    if (t.breaker == "memory" && t.to == BreakerState::kOpen) {
      memory_tripped = true;
    }
  }
  EXPECT_TRUE(memory_tripped);
}

// Source drift makes the drift-corrected cost model predict spare
// headroom for every query; the zero-slack query's protection must be
// sticky anyway — a mid-window estimate is never grounds to shed work
// the window was admitted with no slack for.
TEST(ChaosHarness, DriftCorrectionNeverUnprotectsZeroSlackQueries) {
  TestDb db(200, 8);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {4, 4, 8};
  std::vector<double> abs = TightLooseConstraints(&est, paces);

  FaultSchedule sched;
  sched.source_plan = FaultPlan::Random(84162434, 2, {"orders", "customer"});
  sched.events = {{ChaosLayer::kMemoryPressure, 2, 3, 0.9},
                  {ChaosLayer::kMemoryPressure, 6, 2, 1.2}};

  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->AllGatesPass()) << rep->mismatch;
  ASSERT_FALSE(rep->initial_slack.empty());
  EXPECT_LE(rep->initial_slack[0], 1e-9);
  EXPECT_EQ(rep->flow.shed_total(0), 0);
}

TEST(ChaosHarness, ForeverOutageWalksToSafeStopWithCorrectAnswers) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {16, 16, 32};  // 32 steps: boundaries every 2 steps
  std::vector<double> abs = TightLooseConstraints(&est, paces);

  FaultSchedule sched;
  sched.events = {{ChaosLayer::kStoreTransient, 1, -1, 0}};

  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  // The ladder bottoms out but answers never degrade: persistence is the
  // only casualty. Boundaries 2 and 4 fail (trip 1); the half-open probes
  // at 8, 12 and 16 fail and re-trip, and the 4th trip safe-stops.
  EXPECT_TRUE(rep->AllGatesPass()) << rep->mismatch;
  EXPECT_EQ(rep->final_level, ServiceLevel::kSafeStop);
  EXPECT_EQ(rep->supervisor.safe_stops, 1);
  EXPECT_EQ(rep->supervisor.checkpoint_failures, 5);
  EXPECT_EQ(rep->recovery.checkpoints, 0);
  int64_t trips = 0;
  for (const BreakerTransition& t : rep->breakers) {
    if (t.breaker == "checkpoint" && t.to == BreakerState::kOpen) ++trips;
  }
  EXPECT_EQ(trips, 4);
  ASSERT_FALSE(rep->ladder.empty());
  EXPECT_EQ(rep->ladder.back().to, ServiceLevel::kSafeStop);
  EXPECT_EQ(rep->ladder.back().step, 16);
}

TEST(ChaosHarness, ManySeedComposedSweepHasZeroViolations) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  CostEstimator est(&g, &db.catalog);
  PaceConfig paces = {2, 2, 4};
  std::vector<double> abs = TightLooseConstraints(&est, paces);
  std::vector<std::string> tables = {"orders", "customer"};

  ChaosScheduleOptions sopts;
  sopts.max_step = 4;  // the window has 4 steps

  constexpr uint64_t kSeeds = 120;
  int64_t injections = 0;
  int64_t trips = 0;
  int degraded_runs = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    FaultSchedule sched = FaultSchedule::Random(seed, sopts, tables);
    Result<ChaosReport> rep =
        RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
    ASSERT_TRUE(rep.ok()) << "seed " << seed << ": "
                          << rep.status().ToString();
    ASSERT_TRUE(rep->AllGatesPass())
        << "seed " << seed << " [" << sched.ToString()
        << "]: " << rep->mismatch;
    injections += static_cast<int64_t>(rep->injections.size());
    for (const BreakerTransition& t : rep->breakers) {
      if (t.to == BreakerState::kOpen) ++trips;
    }
    if (rep->final_level != ServiceLevel::kFull) ++degraded_runs;
  }
  // The sweep must actually exercise the machinery, not no-op through it.
  EXPECT_GE(injections, 100);
  EXPECT_GE(trips, 1);
  EXPECT_GE(degraded_runs, 1);
}

// ---------------------------------------------------------------------------
// Fault-concurrent recovery: store faults landing inside parallel waves
// ---------------------------------------------------------------------------

TEST(ChaosCrash, StoreFaultsDuringParallelWavesRecoverBitExact) {
  TestDb db(/*n_orders=*/120, /*n_customers=*/6);
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  PaceConfig paces = {2, 2, 4};

  FaultSchedule sched;
  sched.seed = 7;
  sched.source_plan = FaultPlan::Random(7, 2, {"orders", "customer"});
  // 5 transient faults, clamped to the retry budget (3 extra attempts):
  // the step-2 boundary absorbs them all and still commits.
  sched.events = {{ChaosLayer::kStoreTransient, 1, 5, 0}};

  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  opts.exec.sched.num_threads = 4;
  opts.plan.phase = CrashPhase::kMidWave;
  opts.plan.step = 3;
  opts.plan.wave = 0;

  Result<CrashRunReport> rep =
      RunChaosCrash(g, paces, db.source, sched, &store, opts);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep->crashed);
  EXPECT_TRUE(rep->recovered_from_checkpoint);
  EXPECT_EQ(rep->recovered_step, 2);
  EXPECT_EQ(rep->recovery.store_retry_attempts, 3);
  EXPECT_TRUE(rep->results_identical) << rep->mismatch;
  EXPECT_TRUE(rep->state_identical) << rep->mismatch;
  EXPECT_TRUE(rep->work_identical) << rep->mismatch;
  ASSERT_TRUE(rep->Equivalent()) << rep->mismatch;
}

TEST(ChaosCrash, RejectsMalformedSchedulesAndMissingStore) {
  TestDb db;
  SubplanGraph g = SubplanGraph::Build(MakeSharedDag(db.catalog));
  FaultSchedule bad;
  bad.events = {{ChaosLayer::kStoreTransient, 0, 1, 0}};
  MemoryCheckpointStore store;
  CrashRecoveryOptions opts;
  EXPECT_FALSE(
      RunChaosCrash(g, {2, 2, 4}, db.source, bad, &store, opts).ok());
  EXPECT_FALSE(
      RunChaosCrash(g, {2, 2, 4}, db.source, FaultSchedule{}, nullptr, opts)
          .ok());
}

}  // namespace
}  // namespace ishare
