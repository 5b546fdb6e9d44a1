#include "ishare/harness/chaos_harness.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ishare/harness/result_compare.h"
#include "ishare/obs/obs.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/retry.h"
#include "ishare/storage/perturbed_source.h"

namespace ishare {

namespace {

constexpr double kEps = 1e-9;

// A breaker trip is attributable when a fault of a compatible layer was
// injected at or before the trip step. The step-0 source record covers
// source trips: the perturbation shapes the whole stream.
bool TripAttributable(const chaos::BreakerTransition& t,
                      const chaos::ChaosInjector& injector) {
  using chaos::ChaosLayer;
  if (t.breaker == "checkpoint") {
    return injector.AnyInjected(ChaosLayer::kStoreTransient, t.step) ||
           injector.AnyInjected(ChaosLayer::kStoreBitRot, t.step);
  }
  if (t.breaker == "source") {
    return injector.AnyInjected(ChaosLayer::kSourcePerturb, t.step);
  }
  if (t.breaker == "memory") {
    return injector.AnyInjected(ChaosLayer::kMemoryPressure, t.step);
  }
  return false;
}

}  // namespace

Result<ChaosReport> RunChaos(CostEstimator* estimator,
                             const PaceConfig& paces,
                             const std::vector<double>& abs_constraints,
                             const StreamSource& dataset,
                             const chaos::FaultSchedule& schedule,
                             const ChaosOptions& options) {
  obs::ScopedSpan span("harness.chaos.run");
  ISHARE_RETURN_NOT_OK(schedule.Validate());
  int num_queries = estimator->graph().num_queries();
  ChaosReport rep;

  // ---- Pass A: fault-free baseline --------------------------------------
  // Clean clone, track-only budget: reference results plus the organic
  // working-set peak the bounded budget is derived from.
  std::vector<std::unordered_map<Row, int64_t, RowHasher>> baseline(
      static_cast<size_t>(num_queries));
  {
    StreamSource clean;
    ISHARE_RETURN_NOT_OK(dataset.CloneTablesInto(&clean));
    flow::MemoryBudget track(0);
    ExecOptions opts_a = options.exec;
    opts_a.flow.budget = &track;
    opts_a.flow.buffer_soft_limit_bytes = 0;
    AdaptiveExecutor exec(estimator, &clean, abs_constraints, options.policy,
                          opts_a);
    ISHARE_RETURN_NOT_OK(exec.Run(paces).status());
    rep.peak_baseline = track.peak();
    for (QueryId q = 0; q < num_queries; ++q) {
      baseline[static_cast<size_t>(q)] =
          MaterializeResult(*exec.query_output(q), q);
    }
  }

  // Bounded budget = kBudgetMargin * fault-free peak. Kept > 1 so only
  // injected pressure spikes (never organic usage) cross the memory
  // breaker's trip threshold — the attribution gate depends on it.
  constexpr double kBudgetMargin = 1.6;
  rep.budget_bytes = std::max<int64_t>(
      1, static_cast<int64_t>(kBudgetMargin *
                              static_cast<double>(rep.peak_baseline)));

  // ---- Pass B: supervised chaos run -------------------------------------
  auto src = std::make_unique<PerturbedStreamSource>(schedule.source_plan);
  ISHARE_RETURN_NOT_OK(dataset.CloneTablesInto(src.get()));
  std::vector<std::string> tables = src->TableNames();

  flow::MemoryBudget bounded(rep.budget_bytes);
  ExecOptions opts_b = options.exec;
  opts_b.flow.budget = &bounded;
  AdaptiveExecutor exec(estimator, src.get(), abs_constraints, options.policy,
                        opts_b);

  recovery::MemoryCheckpointStore store;
  recovery::CheckpointManager mgr(&store, options.checkpoint);
  chaos::Supervisor supervisor(&mgr);

  chaos::ChaosInjector::Targets targets;
  targets.store = &store;
  targets.budget = &bounded;
  targets.pool = exec.worker_pool();
  targets.source = src.get();
  chaos::ChaosInjector injector(schedule, targets);

  bool perturbed = !schedule.source_plan.empty();
  exec.set_after_step_hook([&](int64_t step) -> Status {
    if (perturbed) {
      // Data progress = the furthest-along table: a stall observation
      // means the whole stream is stuck, not one lagging table.
      double window = src->current_fraction();
      double data = 0;
      for (const std::string& t : tables) {
        data = std::max(data, src->WarpFraction(t, window));
      }
      supervisor.ObserveSourceProgress(step, window, data);
    }
    supervisor.ObserveMemoryPressure(step, bounded.Pressure());
    supervisor.ObserveFlow(step, exec.flow_stats());
    ISHARE_RETURN_NOT_OK(supervisor.OnStepComplete(step, exec));
    return injector.OnStepBoundary(step);
  });

  ISHARE_RETURN_NOT_OK(exec.BeginWindow(paces));
  rep.initial_slack = exec.query_slack();
  std::vector<bool> protective(
      static_cast<size_t>(estimator->graph().num_subplans()));
  for (int s = 0; s < estimator->graph().num_subplans(); ++s) {
    protective[static_cast<size_t>(s)] = exec.subplan_protective(s);
  }
  ISHARE_RETURN_NOT_OK(injector.OnStepBoundary(0));
  Result<AdaptiveRunResult> run = exec.ResumeWindow();

  rep.final_level = supervisor.level();
  rep.supervisor = supervisor.stats();
  rep.recovery = mgr.stats();
  rep.ladder = supervisor.ladder_log();
  rep.breakers = supervisor.breaker_transitions();
  rep.injections = injector.log();

  // ---- Gate 1: completion ----------------------------------------------
  rep.completed = run.ok();
  if (!rep.completed) {
    rep.mismatch = "chaos run failed: " + run.status().message();
    return rep;  // the remaining gates need a finished window
  }
  rep.flow = run->flow;

  // ---- Gate 2: results match the fault-free baseline --------------------
  rep.results_match_baseline = true;
  for (QueryId q = 0; q < num_queries; ++q) {
    auto got = MaterializeResult(*exec.query_output(q), q);
    if (!ResultsEquivalent(baseline[static_cast<size_t>(q)], got)) {
      rep.results_match_baseline = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "chaos result differs for query " + std::to_string(q);
      }
      break;
    }
  }

  // ---- Gate 3: zero-slack queries saw no shed activity ------------------
  rep.zero_slack_never_shed = true;
  for (QueryId q = 0; q < num_queries; ++q) {
    double slack = q < static_cast<int>(rep.initial_slack.size())
                       ? rep.initial_slack[static_cast<size_t>(q)]
                       : 0.0;
    if (slack > kEps) continue;
    if (rep.flow.shed_total(q) != 0) {
      rep.zero_slack_never_shed = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "zero-slack query " + std::to_string(q) +
                       " was shed (" + std::to_string(rep.flow.shed_total(q)) +
                       " deferrals/drops)";
      }
      break;
    }
  }
  for (const ShedDropEvent& d : run->drop_log) {
    if (d.subplan >= 0 &&
        d.subplan < static_cast<int>(protective.size()) &&
        protective[static_cast<size_t>(d.subplan)]) {
      rep.zero_slack_never_shed = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "protective subplan " + std::to_string(d.subplan) +
                       " dropped tuples at step " + std::to_string(d.step);
      }
      break;
    }
  }

  // ---- Gate 4: every breaker trip maps to an injected fault -------------
  rep.breakers_attributed = true;
  for (const chaos::BreakerTransition& t : rep.breakers) {
    if (t.to != chaos::BreakerState::kOpen) continue;
    if (!TripAttributable(t, injector)) {
      rep.breakers_attributed = false;
      if (rep.mismatch.empty()) {
        rep.mismatch = "unattributed " + t.breaker + " breaker trip at step " +
                       std::to_string(t.step) + " (" + t.cause + ")";
      }
      break;
    }
  }

  obs::Registry()
      .GetGauge("harness.chaos.budget_bytes")
      .Set(static_cast<double>(rep.budget_bytes));
  obs::Registry()
      .GetCounter("harness.chaos.runs")
      .Add(1);
  if (!rep.AllGatesPass()) {
    obs::Registry().GetCounter("harness.chaos.gate_failures").Add(1);
  }
  return rep;
}

Result<CrashRunReport> RunChaosCrash(const SubplanGraph& graph,
                                     const PaceConfig& paces,
                                     const StreamSource& dataset,
                                     const chaos::FaultSchedule& schedule,
                                     recovery::MemoryCheckpointStore* store,
                                     CrashRecoveryOptions options) {
  ISHARE_RETURN_NOT_OK(schedule.Validate());
  if (store == nullptr) {
    return Status::InvalidArgument("RunChaosCrash needs a store");
  }
  options.store = store;

  // Arm the schedule's transient store faults up front so Stage/Commit
  // retries land while the window (possibly parallel) is in flight.
  // Clamped below the per-boundary retry budget: the crashed run must die
  // from the planned kill, never from an exhausted retry.
  int64_t faults = 0;
  for (const chaos::ChaosEvent& ev : schedule.events) {
    if (ev.layer == chaos::ChaosLayer::kStoreTransient && ev.count > 0) {
      faults += ev.count;
    }
  }
  faults = std::min<int64_t>(faults, recovery::kMaxAttempts - 1);
  if (faults > 0) {
    store->InjectWriteFault(
        Status::Unavailable("chaos: store outage during crash cycle"),
        faults);
  }

  const StreamSource* data = &dataset;
  FaultPlan plan = schedule.source_plan;
  SourceFactory factory = [data, plan]() -> std::unique_ptr<StreamSource> {
    auto src = std::make_unique<PerturbedStreamSource>(plan);
    Status st = data->CloneTablesInto(src.get());
    CHECK(st.ok()) << st.message();
    return src;
  };
  return RunCrashRecoveryStatic(graph, paces, factory, options);
}

}  // namespace ishare
