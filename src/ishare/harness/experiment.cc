#include "ishare/harness/experiment.h"

#include <algorithm>
#include <utility>

#include "ishare/obs/obs.h"

namespace ishare {

namespace {

// The harness drives executors with configurations it derived itself, so a
// runtime error here is a harness bug: surface it loudly.
RunResult Unwrap(Result<AdaptiveRunResult> r) {
  CHECK(r.ok()) << r.status().ToString();
  return std::move(r).value().run;
}

}  // namespace

int ExperimentResult::DeadlinesMet() const {
  int n = 0;
  for (const QueryMetrics& q : queries) n += q.deadline_met ? 1 : 0;
  return n;
}

double ExperimentResult::MeanMissedAbs() const {
  if (queries.empty()) return 0;
  double s = 0;
  for (const QueryMetrics& q : queries) s += q.missed_abs;
  return s / static_cast<double>(queries.size());
}

double ExperimentResult::MaxMissedAbs() const {
  double m = 0;
  for (const QueryMetrics& q : queries) m = std::max(m, q.missed_abs);
  return m;
}

double ExperimentResult::MeanMissedRel() const {
  if (queries.empty()) return 0;
  double s = 0;
  for (const QueryMetrics& q : queries) s += q.missed_rel;
  return 100.0 * s / static_cast<double>(queries.size());
}

double ExperimentResult::MaxMissedRel() const {
  double m = 0;
  for (const QueryMetrics& q : queries) m = std::max(m, q.missed_rel);
  return 100.0 * m;
}

Experiment::Experiment(const Catalog* catalog, StreamSource* source,
                       std::vector<QueryPlan> queries,
                       std::vector<double> rel_constraints,
                       ApproachOptions opts, bool calibrate_constraints)
    : catalog_(catalog),
      source_(source),
      queries_(std::move(queries)),
      rel_(std::move(rel_constraints)),
      opts_(opts),
      calibrate_constraints_(calibrate_constraints) {
  CHECK(catalog != nullptr && source != nullptr);
  CHECK_EQ(queries_.size(), rel_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    CHECK_EQ(queries_[i].id, static_cast<QueryId>(i))
        << "experiment queries must have dense ids";
  }
}

const std::vector<double>& Experiment::BatchLatencies() {
  if (batch_done_) return batch_latencies_;
  batch_latencies_.assign(queries_.size(), 0.0);
  batch_final_work_.assign(queries_.size(), 0.0);
  standalone_batch_seconds_ = 0;
  for (const QueryPlan& q : queries_) {
    source_->Reset();
    SubplanGraph g = SubplanGraph::Build({q});
    AdaptiveExecutor exec(&g, source_, opts_.exec);
    RunResult r = Unwrap(exec.Run(PaceConfig(g.num_subplans(), 1)));
    batch_latencies_[q.id] = r.query_latency_seconds[q.id];
    batch_final_work_[q.id] = r.query_final_work[q.id];
    standalone_batch_seconds_ += r.total_seconds;
  }
  batch_done_ = true;
  return batch_latencies_;
}

const std::vector<double>& Experiment::BatchFinalWork() {
  BatchLatencies();
  return batch_final_work_;
}

double Experiment::StandaloneBatchTotalSeconds() {
  BatchLatencies();
  return standalone_batch_seconds_;
}

double Experiment::SharedBatchTotalSeconds() {
  MqoOptimizer mqo(catalog_, opts_.mqo);
  SubplanGraph g = SubplanGraph::Build(mqo.Merge(queries_));
  source_->Reset();
  AdaptiveExecutor exec(&g, source_, opts_.exec);
  RunResult r = Unwrap(exec.Run(PaceConfig(g.num_subplans(), 1)));
  return r.total_seconds;
}

ExperimentResult Experiment::BuildResult(Approach approach,
                                         const OptimizedPlan& plan,
                                         const RunResult& run) {
  const std::vector<double>& batch = BatchLatencies();
  ExperimentResult res;
  res.approach = approach;
  res.total_work = run.total_work;
  res.total_seconds = run.total_seconds;
  res.optimization_seconds = plan.optimization_seconds;
  res.est_total_work = plan.est_cost.total_work;
  res.decompose_stats = plan.decompose_stats;
  res.queries.resize(queries_.size());
  // Seconds per work unit of this run, used to express work-based misses
  // in seconds.
  double sec_per_work =
      run.total_work > 0 ? run.total_seconds / run.total_work : 0.0;
  for (const QueryPlan& q : queries_) {
    QueryMetrics& m = res.queries[q.id];
    m.name = q.name;
    m.final_work = run.query_final_work[q.id];
    m.batch_final_work = batch_final_work_[q.id];
    m.final_work_goal = rel_[q.id] * m.batch_final_work;
    m.latency_seconds = run.query_latency_seconds[q.id];
    m.batch_latency = batch[q.id];
    m.latency_goal = rel_[q.id] * batch[q.id];
    double missed_work = std::max(0.0, m.final_work - m.final_work_goal);
    m.missed_abs = missed_work * sec_per_work;
    m.missed_rel =
        m.final_work_goal > 0 ? missed_work / m.final_work_goal : 0.0;
    m.deadline_met = missed_work <= 0;
    // Per-query latency distributions, one series per query so the JSON
    // export carries p50/p95/p99 per query across repeated runs.
    obs::Registry()
        .GetHistogram("harness.query.latency_seconds#" + q.name)
        .Observe(m.latency_seconds);
    obs::Registry()
        .GetHistogram("harness.query.missed_seconds#" + q.name)
        .Observe(m.missed_abs);
    obs::Registry()
        .GetHistogram("harness.query.missed_rel",
                      obs::Histogram::RatioBounds())
        .Observe(m.missed_rel);
  }
  return res;
}

OptimizedPlan Experiment::Optimize(Approach approach) {
  obs::ScopedSpan span("harness.experiment.optimize");
  BatchLatencies();  // ensure measured batch baselines exist
  std::vector<double> rel_for_opt = rel_;
  if (calibrate_constraints_) {
    // Aim the optimizer's absolute constraints at the measured batch final
    // work rather than the estimated one (recurring-query calibration).
    for (const QueryPlan& q : queries_) {
      double est = EstimateStandaloneBatchWork(q, *catalog_, opts_.exec);
      if (est > 0) {
        rel_for_opt[q.id] = rel_[q.id] * batch_final_work_[q.id] / est;
      }
    }
  }
  return OptimizePlan(approach, queries_, *catalog_, rel_for_opt, opts_);
}

ExperimentResult Experiment::Run(Approach approach) {
  obs::ScopedSpan span("harness.experiment.run");
  OptimizedPlan plan = Optimize(approach);
  source_->Reset();
  AdaptiveExecutor exec(&plan.graph, source_, opts_.exec);
  RunResult run = Unwrap(exec.Run(plan.paces));
  return BuildResult(approach, plan, run);
}

}  // namespace ishare
