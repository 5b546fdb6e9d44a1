#include "ishare/harness/json_export.h"

#include <cmath>
#include <cstdio>

namespace ishare {

namespace {

// The export must stay valid JSON even if a metric went non-finite (e.g. a
// ratio over an empty run); nulls are greppable, NaN would poison the
// whole document.
void SafeNumber(obs::JsonWriter& w, double v) {
  if (std::isfinite(v)) {
    w.Number(v);
  } else {
    w.Null();
  }
}

void WriteHistogram(obs::JsonWriter& w, const obs::HistogramSnapshot& h) {
  w.BeginObject();
  w.Key("count");
  w.Int(h.count);
  w.Key("dropped");
  w.Int(h.dropped);
  w.Key("sum");
  SafeNumber(w, h.sum);
  w.Key("p50");
  SafeNumber(w, h.p50);
  w.Key("p95");
  SafeNumber(w, h.p95);
  w.Key("p99");
  SafeNumber(w, h.p99);
  w.Key("bounds");
  w.BeginArray();
  for (double b : h.bounds) SafeNumber(w, b);
  w.EndArray();
  w.Key("counts");
  w.BeginArray();
  for (int64_t c : h.counts) w.Int(c);
  w.EndArray();
  w.EndObject();
}

void WriteResult(obs::JsonWriter& w, const ExperimentResult& r) {
  w.BeginObject();
  w.Key("approach");
  w.String(ApproachName(r.approach));
  w.Key("total_work");
  SafeNumber(w, r.total_work);
  w.Key("total_seconds");
  SafeNumber(w, r.total_seconds);
  w.Key("optimization_seconds");
  SafeNumber(w, r.optimization_seconds);
  w.Key("est_total_work");
  SafeNumber(w, r.est_total_work);

  w.Key("missed");
  w.BeginObject();
  w.Key("deadlines_met");
  w.Int(r.DeadlinesMet());
  w.Key("num_queries");
  w.Int(static_cast<int64_t>(r.queries.size()));
  w.Key("mean_rel_pct");
  SafeNumber(w, r.MeanMissedRel());
  w.Key("max_rel_pct");
  SafeNumber(w, r.MaxMissedRel());
  w.Key("mean_abs_seconds");
  SafeNumber(w, r.MeanMissedAbs());
  w.Key("max_abs_seconds");
  SafeNumber(w, r.MaxMissedAbs());
  w.EndObject();

  w.Key("adaptation");
  w.BeginObject();
  w.Key("rederivations");
  w.Int(r.adaptation.rederivations);
  w.Key("skipped_execs");
  w.Int(r.adaptation.skipped_execs);
  w.Key("catchup_execs");
  w.Int(r.adaptation.catchup_execs);
  w.Key("drift_ratio");
  SafeNumber(w, r.adaptation.drift_ratio);
  w.Key("rederive_seconds");
  SafeNumber(w, r.adaptation.rederive_seconds);
  w.EndObject();

  w.Key("decompose");
  w.BeginObject();
  w.Key("splits_considered");
  w.Int(r.decompose_stats.splits_considered);
  w.Key("splits_adopted");
  w.Int(r.decompose_stats.splits_adopted);
  w.Key("partial_splits_adopted");
  w.Int(r.decompose_stats.partial_splits_adopted);
  w.Key("partitions_evaluated");
  w.Int(r.decompose_stats.partitions_evaluated);
  w.EndObject();

  w.Key("queries");
  w.BeginArray();
  for (const QueryMetrics& q : r.queries) {
    w.BeginObject();
    w.Key("name");
    w.String(q.name);
    w.Key("final_work");
    SafeNumber(w, q.final_work);
    w.Key("batch_final_work");
    SafeNumber(w, q.batch_final_work);
    w.Key("final_work_goal");
    SafeNumber(w, q.final_work_goal);
    w.Key("latency_seconds");
    SafeNumber(w, q.latency_seconds);
    w.Key("batch_latency");
    SafeNumber(w, q.batch_latency);
    w.Key("latency_goal");
    SafeNumber(w, q.latency_goal);
    w.Key("missed_abs");
    SafeNumber(w, q.missed_abs);
    w.Key("missed_rel");
    SafeNumber(w, q.missed_rel);
    w.Key("deadline_met");
    w.Bool(q.deadline_met);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

double CounterOr0(const obs::MetricsSnapshot& metrics,
                  const std::string& name) {
  auto it = metrics.counters.find(name);
  return it == metrics.counters.end() ? 0.0 : it->second;
}

double GaugeOr0(const obs::MetricsSnapshot& metrics,
                const std::string& name) {
  auto it = metrics.gauges.find(name);
  return it == metrics.gauges.end() ? 0.0 : it->second;
}

}  // namespace

std::string BenchReportJson(
    const BenchRunInfo& info, const std::vector<ExperimentResult>& results,
    const obs::MetricsSnapshot& metrics,
    const std::map<std::string, obs::SpanStats>& spans) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  // v2: added the top-level "recovery" block (DESIGN.md §8).
  // v3: added the top-level "flow" overload-control block (DESIGN.md §9).
  // v4: added config.threads and the top-level "sched" block (DESIGN.md
  //     §10).
  // v5: added the top-level "chaos" block and the recovery block's
  //     checkpoint-health keys (DESIGN.md §11).
  // v6: added the top-level "exec" block with the columnar/row batch
  //     routing counters (DESIGN.md §12).
  // v7: added the top-level "churn" block with the membership-churn
  //     counters (DESIGN.md §13).
  // v8: added the top-level "shard" block with the sharded-execution
  //     counters (DESIGN.md §14).
  // v9: added the top-level "arrange" block with the shared-arrangement
  //     counters, and flow.state_bytes_per_query (DESIGN.md §15).
  // v10: removed the v6 "exec" block: with one row pump there is no
  //      execution path left to report (DESIGN.md §12).
  w.Int(10);
  w.Key("generator");
  w.String("ishare");
  w.Key("bench");
  w.String(info.bench);

  w.Key("config");
  w.BeginObject();
  w.Key("sf");
  SafeNumber(w, info.sf);
  w.Key("max_pace");
  w.Int(info.max_pace);
  w.Key("seed");
  w.Int(static_cast<int64_t>(info.seed));
  w.Key("threads");
  w.Int(info.threads);
  w.Key("quick");
  w.Bool(info.quick);
  w.EndObject();

  w.Key("results");
  w.BeginArray();
  for (const ExperimentResult& r : results) WriteResult(w, r);
  w.EndArray();

  // Checkpoint/retry activity rollup, from the recovery.* counters. All
  // zeros for benches that never checkpoint — kept unconditionally so the
  // schema is stable across benches.
  w.Key("recovery");
  w.BeginObject();
  w.Key("checkpoints");
  SafeNumber(w, CounterOr0(metrics, "recovery.checkpoint.count"));
  w.Key("checkpoint_bytes");
  SafeNumber(w, CounterOr0(metrics, "recovery.checkpoint.bytes"));
  w.Key("torn_discarded");
  SafeNumber(w, CounterOr0(metrics, "recovery.checkpoint.torn_discarded"));
  w.Key("restores");
  SafeNumber(w, CounterOr0(metrics, "recovery.restore.count"));
  w.Key("replayed_deltas");
  SafeNumber(w, CounterOr0(metrics, "recovery.restore.replayed_deltas"));
  w.Key("retry_attempts");
  SafeNumber(w, CounterOr0(metrics, "recovery.retry.attempts"));
  w.Key("retry_success");
  SafeNumber(w, CounterOr0(metrics, "recovery.retry.success"));
  w.Key("retry_exhausted");
  SafeNumber(w, CounterOr0(metrics, "recovery.retry.exhausted"));
  w.Key("retry_backoff_seconds");
  SafeNumber(w, CounterOr0(metrics, "recovery.retry.backoff_seconds"));
  w.Key("consecutive_failures");
  SafeNumber(w,
             GaugeOr0(metrics, "recovery.checkpoint.consecutive_failures"));
  w.Key("last_commit_epoch");
  SafeNumber(w, GaugeOr0(metrics, "recovery.checkpoint.last_commit_epoch"));
  w.EndObject();

  // Overload-control rollup, from the flow.* metrics (DESIGN.md §9). All
  // zeros for benches that never attach a MemoryBudget — kept
  // unconditionally, like "recovery", so the schema is stable.
  w.Key("flow");
  w.BeginObject();
  w.Key("budget_bytes");
  SafeNumber(w, GaugeOr0(metrics, "flow.budget.budget_bytes"));
  w.Key("used_bytes");
  SafeNumber(w, GaugeOr0(metrics, "flow.budget.used_bytes"));
  w.Key("peak_bytes");
  SafeNumber(w, GaugeOr0(metrics, "flow.budget.peak_bytes"));
  w.Key("trims");
  SafeNumber(w, CounterOr0(metrics, "flow.trim.count"));
  w.Key("trimmed_tuples");
  SafeNumber(w, CounterOr0(metrics, "flow.trim.tuples"));
  w.Key("shed_deferred_execs");
  SafeNumber(w, CounterOr0(metrics, "flow.shed.deferred"));
  w.Key("shed_dropped_tuples");
  SafeNumber(w, CounterOr0(metrics, "flow.shed.dropped_tuples"));
  w.Key("backpressure_events");
  SafeNumber(w, CounterOr0(metrics, "flow.backpressure.buffer_events") +
                    CounterOr0(metrics, "flow.backpressure.defer"));
  w.Key("state_bytes_per_query");
  SafeNumber(w, GaugeOr0(metrics, "flow.state_bytes_per_query"));
  w.EndObject();

  // Parallel-scheduler rollup, from the sched.* metrics (DESIGN.md §10).
  // All zeros for serial runs (num_threads == 1 never constructs a pool)
  // — kept unconditionally, like "recovery" and "flow", so the schema is
  // stable.
  w.Key("sched");
  w.BeginObject();
  w.Key("pool_tasks");
  SafeNumber(w, CounterOr0(metrics, "sched.pool.tasks"));
  w.Key("pool_steals");
  SafeNumber(w, CounterOr0(metrics, "sched.pool.steals"));
  w.Key("parallel_fors");
  SafeNumber(w, CounterOr0(metrics, "sched.pool.parallel_for"));
  w.Key("step_waves");
  SafeNumber(w, CounterOr0(metrics, "sched.step.waves"));
  w.EndObject();

  // Chaos/supervision rollup, from the chaos.* metrics (DESIGN.md §11).
  // All zeros for unsupervised runs — kept unconditionally, like the
  // other rollups, so the schema is stable.
  w.Key("chaos");
  w.BeginObject();
  w.Key("service_level");
  SafeNumber(w, GaugeOr0(metrics, "chaos.ladder.level"));
  w.Key("ladder_transitions");
  SafeNumber(w, CounterOr0(metrics, "chaos.ladder.transitions"));
  w.Key("breaker_trips");
  SafeNumber(w, CounterOr0(metrics, "chaos.breaker.trip"));
  w.Key("breaker_half_opens");
  SafeNumber(w, CounterOr0(metrics, "chaos.breaker.half_open"));
  w.Key("breaker_closes");
  SafeNumber(w, CounterOr0(metrics, "chaos.breaker.close"));
  w.Key("faults_injected");
  SafeNumber(w, CounterOr0(metrics, "chaos.fault.injected"));
  w.Key("checkpoints_skipped");
  SafeNumber(w, CounterOr0(metrics, "chaos.supervisor.checkpoints_skipped"));
  w.Key("checkpoints_stretched");
  SafeNumber(w,
             CounterOr0(metrics, "chaos.supervisor.checkpoints_stretched"));
  w.Key("defer_signals");
  SafeNumber(w, CounterOr0(metrics, "chaos.supervisor.defer_signals"));
  w.Key("safe_stops");
  SafeNumber(w, CounterOr0(metrics, "chaos.supervisor.safe_stops"));
  w.EndObject();

  // Membership-churn rollup, from the churn.* counters (DESIGN.md §13).
  // All zeros for fixed-membership runs — kept unconditionally, like the
  // other rollups, so the schema is stable.
  w.Key("churn");
  w.BeginObject();
  w.Key("registrations");
  SafeNumber(w, CounterOr0(metrics, "churn.registrations"));
  w.Key("deregistrations");
  SafeNumber(w, CounterOr0(metrics, "churn.deregistrations"));
  w.Key("deferrals");
  SafeNumber(w, CounterOr0(metrics, "churn.deferrals"));
  w.Key("unshared_fallbacks");
  SafeNumber(w, CounterOr0(metrics, "churn.unshared_fallbacks"));
  w.Key("epochs");
  SafeNumber(w, CounterOr0(metrics, "churn.epochs"));
  w.Key("subplans_carried");
  SafeNumber(w, CounterOr0(metrics, "churn.subplans_carried"));
  w.Key("subplans_rebuilt");
  SafeNumber(w, CounterOr0(metrics, "churn.subplans_rebuilt"));
  w.Key("reclaimed_bytes");
  SafeNumber(w, CounterOr0(metrics, "churn.reclaimed_bytes"));
  w.Key("quiesce_work");
  SafeNumber(w, CounterOr0(metrics, "churn.quiesce_work"));
  w.EndObject();

  // Sharded-execution rollup, from the shard.* counters (DESIGN.md §14).
  // All zeros for single-runtime runs — kept unconditionally, like the
  // other rollups, so the schema is stable.
  w.Key("shard");
  w.BeginObject();
  w.Key("rounds");
  SafeNumber(w, CounterOr0(metrics, "shard.rounds"));
  w.Key("merged_tuples");
  SafeNumber(w, CounterOr0(metrics, "shard.merged_tuples"));
  w.Key("exchange_delivered_tuples");
  SafeNumber(w, CounterOr0(metrics, "shard.exchange.delivered_tuples"));
  w.Key("exchange_drained_tuples");
  SafeNumber(w, CounterOr0(metrics, "shard.exchange.drained_tuples"));
  w.Key("exchange_backpressure_events");
  SafeNumber(w, CounterOr0(metrics, "shard.exchange.backpressure_events"));
  w.Key("straggler_observations");
  SafeNumber(w, CounterOr0(metrics, "shard.straggler.observations"));
  w.Key("straggler_lag_steps");
  SafeNumber(w, CounterOr0(metrics, "shard.straggler.lag_steps"));
  w.Key("straggler_absorbed");
  SafeNumber(w, CounterOr0(metrics, "shard.straggler.absorbed"));
  w.Key("straggler_escalations");
  SafeNumber(w, CounterOr0(metrics, "shard.straggler.escalations"));
  w.Key("breaker_trips");
  SafeNumber(w, CounterOr0(metrics, "shard.breaker.trips"));
  w.Key("recoveries");
  SafeNumber(w, CounterOr0(metrics, "shard.recovery.recoveries"));
  w.Key("restarts");
  SafeNumber(w, CounterOr0(metrics, "shard.recovery.restarts"));
  w.Key("recovery_epochs");
  SafeNumber(w, CounterOr0(metrics, "shard.recovery.epochs"));
  w.EndObject();

  // Shared-arrangement rollup, from the arrange.* metrics (DESIGN.md §15).
  // All zeros for runs without an ArrangementCatalog — kept
  // unconditionally, like the other rollups, so the schema is stable.
  w.Key("arrange");
  w.BeginObject();
  w.Key("count");
  SafeNumber(w, GaugeOr0(metrics, "arrange.count"));
  w.Key("state_bytes");
  SafeNumber(w, GaugeOr0(metrics, "arrange.state_bytes"));
  w.Key("chain_max_len");
  SafeNumber(w, GaugeOr0(metrics, "arrange.chain.max_len"));
  w.Key("apply_tuples");
  SafeNumber(w, GaugeOr0(metrics, "arrange.apply.tuples"));
  w.Key("apply_dedup_skipped");
  SafeNumber(w, GaugeOr0(metrics, "arrange.apply.dedup_skipped"));
  w.Key("reader_attaches");
  SafeNumber(w, CounterOr0(metrics, "arrange.reader.attach"));
  w.Key("reader_detaches");
  SafeNumber(w, CounterOr0(metrics, "arrange.reader.detach"));
  w.Key("compact_runs");
  SafeNumber(w, CounterOr0(metrics, "arrange.compact.runs"));
  w.Key("compact_folded");
  SafeNumber(w, CounterOr0(metrics, "arrange.compact.folded"));
  w.EndObject();

  w.Key("metrics");
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, v] : metrics.counters) {
    w.Key(name);
    SafeNumber(w, v);
  }
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, v] : metrics.gauges) {
    w.Key(name);
    SafeNumber(w, v);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, h] : metrics.histograms) {
    w.Key(name);
    WriteHistogram(w, h);
  }
  w.EndObject();
  w.EndObject();

  w.Key("spans");
  w.BeginObject();
  for (const auto& [name, s] : spans) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Int(s.count);
    w.Key("total_seconds");
    SafeNumber(w, s.total_seconds);
    w.Key("min_seconds");
    SafeNumber(w, s.min_seconds);
    w.Key("max_seconds");
    SafeNumber(w, s.max_seconds);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.Take();
}

std::string BenchReportJson(const BenchRunInfo& info,
                            const std::vector<ExperimentResult>& results) {
  return BenchReportJson(info, results, obs::Registry().Snapshot(),
                         obs::GlobalTracer().Snapshot());
}

Status WriteBenchJson(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  size_t n = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = (n == json.size());
  ok = (std::fputc('\n', f) != EOF) && ok;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::Internal("short write to " + path);
  return Status::OK();
}

}  // namespace ishare
