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
  // v11: removed the seven rollup blocks, whose values the "metrics"
  //      block already carries, and each result's "adaptation" block.
  w.Int(11);
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
