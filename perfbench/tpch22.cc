// tpch22: the paper's headline plan and the serial single-thread baseline.
// All 22 TPC-H queries on the sf 0.01 dataset at a relative final-work
// constraint of 0.2, optimized by OptimizePlan(kIShare) (MQO merge, pace
// search, decomposition) with max_pace 50 and run by AdaptiveExecutor at
// its default policy on one thread. Every window replays the same dataset
// through a fresh engine.
//
// Output check: each query's result must equal its standalone, unshared,
// pace-1 run, and every window's results must equal the first window's.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "ishare/harness/churn_harness.h"
#include "ishare/mqo/mqo_optimizer.h"
#include "ishare/opt/approaches.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"

namespace perfbench {

using namespace ishare;

namespace {

constexpr double kScaleFactor = 0.01;
constexpr double kRelConstraint = 0.2;
constexpr int kMaxPace = 50;

ApproachOptions Options() {
  ApproachOptions o;
  o.max_pace = kMaxPace;
  return o;
}

// One window's engine. Built fresh per window: operator state and the
// base buffers' consumer registrations would otherwise carry over.
struct Engine {
  Engine(const TpchDb& db, const OptimizedPlan& plan, bool traced)
      : source(CloneSource(db.source, traced)),
        timed(dynamic_cast<TimedSource*>(source.get())) {
    estimator = std::make_unique<CostEstimator>(&plan.graph, &db.catalog,
                                                Options().exec);
    exec = std::make_unique<AdaptiveExecutor>(
        estimator.get(), source.get(), plan.abs_constraints,
        AdaptivePolicy(), Options().exec,
        PaceOptimizerOptions{kMaxPace, 0});
  }

  std::unique_ptr<StreamSource> source;
  TimedSource* timed = nullptr;
  std::unique_ptr<CostEstimator> estimator;
  std::unique_ptr<AdaptiveExecutor> exec;
};

struct Setup {
  std::unique_ptr<TpchDb> db;
  std::vector<QueryPlan> queries;
  OptimizedPlan plan;
  std::unique_ptr<Engine> engine;  // serves the first window
};

// Dataset generation, optimization and the first engine. In traced runs
// the optimizer's phases are recorded too: merge by timing the public
// MqoOptimizer::Merge call, pace search and decomposition from the
// optimizer's own opt.*.run spans.
void DoSetup(uint64_t seed, LayerSamples* layer, Setup* s) {
  Stopwatch gen;
  s->db = std::make_unique<TpchDb>(TpchScale{kScaleFactor, seed});
  s->queries = AllTpchQueries(s->db->catalog);
  if (layer != nullptr) layer->Add("workload.gen_s", gen.Seconds(), "s");
  std::vector<double> rel(s->queries.size(), kRelConstraint);
  ObsDelta obs;
  Stopwatch opt;
  s->plan = OptimizePlan(Approach::kIShare, s->queries, s->db->catalog, rel,
                         Options());
  double opt_s = opt.Seconds();
  obs.Finish();
  if (layer != nullptr) {
    layer->Add("opt.opt_s", opt_s, "s");
    layer->Add("opt.pace_search_s", obs.SpanSeconds("opt.pace_search.run"),
               "s");
    layer->Add("opt.decompose_s", obs.SpanSeconds("opt.decompose.run"), "s");
    layer->Add("opt.pace_search_iterations",
               obs.Counter("opt.pace_search.iterations"), "count");
    layer->Add("opt.decompose_rounds", obs.Counter("opt.decompose.rounds"),
               "count");
    layer->Add("cost.estimate_calls", obs.Counter("cost.estimate.calls"),
               "count");
    double lookups =
        static_cast<double>(s->plan.memo_hits + s->plan.memo_misses);
    layer->Add("cost.memo_hit_ratio",
               lookups > 0 ? static_cast<double>(s->plan.memo_hits) / lookups
                           : 0.0,
               "ratio");
    Stopwatch merge;
    std::vector<QueryPlan> merged =
        MqoOptimizer(&s->db->catalog, Options().mqo).Merge(s->queries);
    layer->Add("mqo.merge_s", merge.Seconds(), "s");
  }
  s->engine = std::make_unique<Engine>(*s->db, s->plan, /*traced=*/false);
}

}  // namespace

void RunTpch22(Outcome* out) {
  const Config& cfg = out->config();
  LayerSamples layer;
  // Traced runs alternate an untraced window with a traced one, so
  // trace.overhead compares windows run under the same host conditions.
  WindowLoop loop(out, "tpch22", 2);
  std::unique_ptr<Setup> s;
  loop.Setup(
      [&s] { s.reset(); },
      [&] {
        s = std::make_unique<Setup>();
        DoSetup(cfg.seed, cfg.trace ? &layer : nullptr, s.get());
      });
  const OptimizedPlan& plan = s->plan;
  const int nq = static_cast<int>(s->queries.size());

  double total_work = 0;
  std::unique_ptr<Engine> engine = std::move(s->engine);
  while (loop.Next()) {
    const bool traced = loop.traced();
    if (engine == nullptr) {
      engine = std::make_unique<Engine>(*s->db, plan, traced);
    }
    ExecProbe probe;
    if (traced) probe.Attach(engine->exec.get(), plan.graph.num_subplans());
    ObsDelta obs;
    WindowRun win = RunWindow(engine->exec.get(), plan.paces);
    obs.Finish();
    if (!loop.Check(win.run.status())) {
      engine.reset();
      continue;
    }
    const AdaptiveRunResult& r = *win.run;
    total_work = r.run.total_work;
    out->Guard("total_work", r.run.total_work);
    out->Guard("exec.executions", static_cast<double>(Executions(r.run)));
    loop.Time(win.window_s, win.trigger_s);
    if (traced) {
      double advance_s = engine->timed->advance_seconds();
      double released = static_cast<double>(engine->timed->released_tuples());
      double trimmed = obs.Counter("flow.trim.tuples");
      layer.Add("storage.advance_s", advance_s, "s");
      layer.Add("storage.released_tuples", released, "count");
      layer.Add("storage.trimmed_tuples", trimmed, "count");
      double appended = released + obs.Counter("exec.subplan.tuples_out");
      layer.Add("storage.trim_ratio", appended > 0 ? trimmed / appended : 0,
                "ratio");
      AddExecLayer(plan.graph, r, win.window_s, advance_s, /*serial=*/true,
                   probe, obs, &layer);
      layer.Add("exec.goals_missed", GoalsMissed(r.run, plan.abs_constraints),
                "count");
    }
    std::vector<ResultMap> got;
    for (QueryId q = 0; q < nq; ++q) {
      got.push_back(MaterializeResult(*engine->exec->query_output(q), q));
    }
    loop.Compare(std::move(got));
    engine.reset();
  }

  // Output check against standalone pace-1 runs.
  if (loop.first().size() == static_cast<size_t>(nq)) {
    churn::QueryProvider provider = [&s](QueryId q) {
      return s->queries[static_cast<size_t>(q)];
    };
    for (QueryId q = 0; q < nq; ++q) {
      auto ref = ChurnReferenceResult(&s->db->catalog, provider, q,
                                      s->db->source, 1, 1, ExecOptions());
      bool ok = ref.ok() &&
                SameResult(loop.first()[static_cast<size_t>(q)], *ref);
      out->Attempt(ok, "tpch22 query " + std::to_string(q) +
                           " differs from its standalone pace-1 run");
      if (ok && q == 0) SelfTestChecker(*ref, out);
    }
  }

  loop.Report(WindowTuples(s->db->source), total_work, &layer);
}

}  // namespace perfbench
