// Structured bench export (DESIGN.md §7): serializes experiment results
// plus the observability state (metrics registry + span aggregates) into
// one versioned JSON document. Every bench binary writes this via
// `--json=<path>` so reproduction runs are machine-checkable instead of
// text-table-scrape-only.
//
// Schema (version 11, stable key order; tests/golden/experiment_export.json
// pins a full document, and BenchReportJson lists what each version
// added or removed):
//   {
//     "schema_version": 11,
//     "generator": "ishare",
//     "bench": "<binary name>",
//     "config": {"sf", "max_pace", "seed", "threads", "quick"},
//     "results": [ { per-ExperimentResult block } ],
//     "metrics": {"counters": {...}, "gauges": {...},
//                 "histograms": {name: {count, dropped, sum,
//                                       p50, p95, p99,
//                                       bounds: [...], counts: [...]}}},
//     "spans": {name: {count, total_seconds, min_seconds, max_seconds}}
//   }
// Subsystem series (recovery.*, flow.*, sched.*, chaos.*, churn.*,
// shard.*, arrange.*) appear under "metrics" by their own names; a series
// the run never touched is absent.

#ifndef ISHARE_HARNESS_JSON_EXPORT_H_
#define ISHARE_HARNESS_JSON_EXPORT_H_

#include <map>
#include <string>
#include <vector>

#include "ishare/harness/experiment.h"
#include "ishare/obs/json.h"
#include "ishare/obs/obs.h"

namespace ishare {

// Identity of one bench invocation, recorded in the export header.
struct BenchRunInfo {
  std::string bench;  // binary name, e.g. "bench_table1_missed_latency"
  double sf = 0.01;
  int max_pace = 50;
  uint64_t seed = 7;
  int threads = 1;  // scheduler worker threads (1 = serial path)
  bool quick = false;
};

// Renders the full export document from explicit snapshots. Pure function
// of its inputs (tests hand-craft the snapshots for golden comparison).
// Returns an empty string only if a non-finite value slipped past the
// sanitizers, which is a bug; callers may CHECK on emptiness.
std::string BenchReportJson(
    const BenchRunInfo& info, const std::vector<ExperimentResult>& results,
    const obs::MetricsSnapshot& metrics,
    const std::map<std::string, obs::SpanStats>& spans);

// Convenience overload snapshotting the process-global registry + tracer.
std::string BenchReportJson(const BenchRunInfo& info,
                            const std::vector<ExperimentResult>& results);

// Writes `json` to `path` (atomically enough for bench use: truncate +
// write + close).
Status WriteBenchJson(const std::string& path, const std::string& json);

}  // namespace ishare

#endif  // ISHARE_HARNESS_JSON_EXPORT_H_
