#include "ishare/harness/shard_harness.h"

#include <utility>

#include "ishare/harness/result_compare.h"
#include "ishare/obs/obs.h"

namespace ishare {

namespace {

// First ladder transition that leaves kFull, if any.
bool LadderLeftFull(const std::vector<chaos::LadderTransition>& log) {
  for (const chaos::LadderTransition& t : log) {
    if (t.to > chaos::ServiceLevel::kFull) return true;
  }
  return false;
}

}  // namespace

Result<std::vector<std::unordered_map<Row, int64_t, RowHasher>>>
UnshardedReference(const Catalog* catalog, const StreamSource& dataset,
                   const std::vector<QueryPlan>& plans,
                   const std::vector<double>& constraints) {
  StreamSource source;
  ISHARE_RETURN_NOT_OK(dataset.CloneTablesInto(&source));
  SubplanGraph graph = SubplanGraph::Build(plans);
  ISHARE_RETURN_NOT_OK(graph.Validate());
  ExecOptions exec_opts;  // serial, unbudgeted, default buffers
  CostEstimator estimator(&graph, catalog, exec_opts);
  AdaptiveExecutor exec(&estimator, &source, constraints, AdaptivePolicy(),
                        exec_opts);
  ISHARE_RETURN_NOT_OK(
      exec.Run(PaceConfig(static_cast<size_t>(graph.num_subplans()), 1))
          .status());
  std::vector<std::unordered_map<Row, int64_t, RowHasher>> out;
  out.reserve(static_cast<size_t>(graph.num_queries()));
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    out.push_back(MaterializeResult(*exec.query_output(q), q));
  }
  return out;
}

Result<ShardReport> RunShardGroup(const Catalog* catalog,
                                  const StreamSource& dataset,
                                  const std::vector<QueryPlan>& plans,
                                  const std::vector<double>& constraints,
                                  const chaos::FaultSchedule& schedule,
                                  const ShardHarnessOptions& options) {
  obs::ScopedSpan span("harness.shard.run");
  ISHARE_RETURN_NOT_OK(schedule.Validate());

  ShardReport report;
  report.num_shards = options.shard.num_shards;

  shard::ShardedRuntime rt(catalog, dataset, plans, constraints,
                           options.shard);
  ISHARE_RETURN_NOT_OK(rt.init_status());

  chaos::ChaosInjector::Targets targets;
  targets.budget = options.shard.exec.flow.budget;
  targets.shard_stall = [&rt](int s, int64_t rounds) {
    return rt.InjectStall(s, rounds);
  };
  targets.shard_crash = [&rt](int s) { return rt.InjectCrash(s); };
  chaos::ChaosInjector injector(schedule, targets);

  Status run_st = rt.BeginWindow(options.max_pace);
  if (run_st.ok()) run_st = injector.OnStepBoundary(0);
  while (run_st.ok() && rt.HasPendingRounds()) {
    run_st = rt.RunRound();
    // Injector time is group-round time. After a recovery the round
    // counter rolls back, but applied events never re-arm (the injector's
    // cursor is monotone) — a replayed round is crash-free by design.
    if (run_st.ok()) run_st = injector.OnStepBoundary(rt.round());
  }
  shard::ShardRunResult result;
  if (run_st.ok()) {
    Result<shard::ShardRunResult> fin = rt.FinishWindow();
    if (fin.ok()) {
      result = std::move(fin).value();
    } else {
      run_st = fin.status();
    }
  }

  report.injections = injector.log();
  report.completed = run_st.ok();
  if (!report.completed) {
    report.mismatch = "run failed: " + run_st.ToString();
    obs::Registry().GetCounter("harness.shard.runs").Add(1);
    obs::Registry().GetCounter("harness.shard.gate_failures").Add(1);
    return report;
  }
  report.stats = result.stats;
  report.final_level = result.final_level;
  report.safe_stopped = result.supervisor.safe_stops > 0;
  report.dropped_tuples = result.dropped_tuples;
  report.checkpoints = result.checkpoints;

  // ---- gate 2: merged results vs the unsharded baseline ----------------
  ISHARE_ASSIGN_OR_RETURN(auto reference,
                          UnshardedReference(catalog, dataset, plans,
                                             constraints));
  report.bit_exact = true;
  for (QueryId q = 0; q < rt.num_queries(); ++q) {
    ISHARE_ASSIGN_OR_RETURN(auto merged, rt.QueryResult(q));
    ++report.queries_checked;
    if (!ResultsEquivalent(merged, reference[static_cast<size_t>(q)])) {
      report.bit_exact = false;
      if (report.mismatch.empty()) {
        report.mismatch = "query " + std::to_string(q) +
                          " sharded result differs from unsharded baseline";
      }
      break;
    }
  }

  // ---- gate 3: crash implies a real group recovery ---------------------
  const bool crashed = injector.AnyInjected(chaos::ChaosLayer::kShardCrash,
                                            schedule.events.empty()
                                                ? 0
                                                : schedule.events.back().step);
  report.recovery_consistent = true;
  if (crashed) {
    if (result.stats.recoveries < 1) {
      report.recovery_consistent = false;
      if (report.mismatch.empty()) {
        report.mismatch = "shard crash injected but no group recovery ran";
      }
    } else if (!report.bit_exact) {
      report.recovery_consistent = false;
      if (report.mismatch.empty()) {
        report.mismatch = "group recovery produced non-bit-exact results";
      }
    }
  }

  // ---- gate 4: straggler regime ----------------------------------------
  switch (options.regime) {
    case StragglerRegime::kNone:
      report.straggler_ok = true;
      break;
    case StragglerRegime::kWithinSlack:
      report.straggler_ok = result.stats.straggler_absorbed > 0 &&
                            result.stats.straggler_escalations == 0 &&
                            result.dropped_tuples == 0;
      if (!report.straggler_ok && report.mismatch.empty()) {
        report.mismatch =
            "within-slack straggler not absorbed cleanly (absorbed=" +
            std::to_string(result.stats.straggler_absorbed) +
            " escalations=" +
            std::to_string(result.stats.straggler_escalations) +
            " dropped=" + std::to_string(result.dropped_tuples) + ")";
      }
      break;
    case StragglerRegime::kBeyondSlack:
      report.straggler_ok = result.stats.straggler_escalations > 0 &&
                            LadderLeftFull(result.ladder_log) &&
                            !report.safe_stopped;
      if (!report.straggler_ok && report.mismatch.empty()) {
        report.mismatch =
            "beyond-slack straggler did not escalate through the ladder "
            "(escalations=" +
            std::to_string(result.stats.straggler_escalations) +
            " ladder_left_full=" +
            std::to_string(LadderLeftFull(result.ladder_log)) +
            " safe_stopped=" + std::to_string(report.safe_stopped) + ")";
      }
      break;
  }

  obs::Registry().GetCounter("harness.shard.runs").Add(1);
  if (!report.AllGatesPass()) {
    obs::Registry().GetCounter("harness.shard.gate_failures").Add(1);
  }
  return report;
}

}  // namespace ishare
