// Experiment harness: optimize-with-approach-X → execute → measure. The
// glue every bench is built on, producing the paper's Table 1/2/3 and
// Fig. 9–17 quantities (total work, per-query final work and missed
// latency against goals derived from measured batch runs). Feeds per-query
// latency/miss histograms and experiment spans into the obs layer
// (DESIGN.md §7); BenchReportJson (json_export.h) serializes the results.

#ifndef ISHARE_HARNESS_EXPERIMENT_H_
#define ISHARE_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/opt/approaches.h"

namespace ishare {

// Per-query measurements of one experiment run.
//
// Missed latencies are computed on measured *final work* (the paper's own
// latency proxy, Sec. 2.1): at simulator scale, wall-clock times of single
// final executions are microseconds and dominated by timing noise, whereas
// work units are deterministic. The work-based miss is converted to
// seconds with the run's measured seconds-per-work-unit rate so the
// Table 1/2/3 "Sec." columns stay comparable. Raw wall-clock latencies are
// kept for reference.
struct QueryMetrics {
  std::string name;
  double final_work = 0;        // measured, cost-model units
  double batch_final_work = 0;  // measured standalone one-batch final work
  double final_work_goal = 0;   // rel_constraint * batch_final_work
  double latency_seconds = 0;   // measured wall time of final executions
  double batch_latency = 0;     // wall time of standalone one-batch run
  double latency_goal = 0;      // rel_constraint * batch_latency (Sec. 5.1)
  double missed_abs = 0;        // work-based miss converted to seconds
  double missed_rel = 0;        // work-based miss / goal
  bool deadline_met = true;     // final_work <= final_work_goal
};

struct ExperimentResult {
  Approach approach = Approach::kIShare;
  double total_work = 0;             // measured cost-model units
  double total_seconds = 0;          // the paper's "total execution time"
  double optimization_seconds = 0;
  double est_total_work = 0;         // optimizer's estimate, for comparison
  std::vector<QueryMetrics> queries;
  DecomposeStats decompose_stats;

  int DeadlinesMet() const;  // number of queries with deadline_met
  double MeanMissedAbs() const;
  double MaxMissedAbs() const;
  double MeanMissedRel() const;  // percent
  double MaxMissedRel() const;   // percent
};

// Runs scheduled-query experiments over one dataset: optimizes with an
// approach, executes the resulting pace configuration over the full trigger
// window, and reports total work / per-query (missed) latencies against
// latency goals derived from measured batch latencies.
class Experiment {
 public:
  // `queries` must have dense ids 0..n-1. The stream source is Reset()
  // before every run, so one Experiment can evaluate many approaches.
  //
  // With `calibrate_constraints` set, each query's relative constraint is
  // rescaled by the ratio of its *measured* to *estimated* standalone
  // batch final work before optimization — the paper's recurring-query
  // calibration (Sec. 2.1): "users can adjust the final work constraint
  // based on this query's prior executions". This compensates for cost-
  // model bias so the optimizer aims at the real latency goal.
  Experiment(const Catalog* catalog, StreamSource* source,
             std::vector<QueryPlan> queries,
             std::vector<double> rel_constraints,
             ApproachOptions opts = ApproachOptions(),
             bool calibrate_constraints = false);

  ExperimentResult Run(Approach approach);

  // Measured latency of executing each query standalone in one batch;
  // computed lazily once and cached (defines the latency goals).
  const std::vector<double>& BatchLatencies();

  // Measured final work of each query's standalone one-batch execution.
  const std::vector<double>& BatchFinalWork();

  // Measured total execution time of (a) every query standalone in one
  // batch and (b) the MQO-shared plan in one batch — Fig. 10.
  double StandaloneBatchTotalSeconds();
  double SharedBatchTotalSeconds();

  const std::vector<QueryPlan>& queries() const { return queries_; }
  const ApproachOptions& options() const { return opts_; }

 private:
  OptimizedPlan Optimize(Approach approach);
  ExperimentResult BuildResult(Approach approach, const OptimizedPlan& plan,
                               const RunResult& run);

  const Catalog* catalog_;
  StreamSource* source_;
  std::vector<QueryPlan> queries_;
  std::vector<double> rel_;
  ApproachOptions opts_;
  bool calibrate_constraints_;
  std::vector<double> batch_latencies_;
  std::vector<double> batch_final_work_;
  bool batch_done_ = false;
  double standalone_batch_seconds_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_HARNESS_EXPERIMENT_H_
