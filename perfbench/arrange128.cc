// arrange128: many tenants sharing versioned operator state concurrently.
// 128 tenants over a synthetic orders x customer stream, alternating a
// per-customer aggregate and an orders-customer join. There is no MQO
// merge: each tenant is its own subplan, so all sharing goes through the
// ArrangementCatalog (ExecOptions::arrange). Paces are staggered 1-4 so
// readers sit at different versions, constraints are unbounded, and
// AdaptiveExecutor runs with 2 worker threads.
//
// Output check: the arranged results must equal a run of the same
// population with no catalog (private operator state), and every window's
// results must equal the first window's.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "ishare/arrange/arrangement.h"
#include "ishare/plan/builder.h"

namespace perfbench {

using namespace ishare;

namespace {

constexpr int kTenants = 128;
constexpr int kOrders = 20000;
constexpr int kCustomers = 64;
constexpr int kThreads = 2;

std::vector<QueryPlan> Tenants(const Catalog& catalog) {
  std::vector<QueryPlan> plans;
  for (QueryId q = 0; q < kTenants; ++q) {
    PlanBuilder b(&catalog, q);
    PlanNodePtr root;
    if (q % 2 == 0) {
      root = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                         {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
    } else {
      root = b.Join(b.Scan("orders"), b.Scan("customer"), {"o_custkey"},
                    {"c_custkey"});
    }
    plans.push_back({q, "tenant" + std::to_string(q), root});
  }
  return plans;
}

struct Setup {
  std::unique_ptr<SalesDb> db;
  std::unique_ptr<SubplanGraph> graph;
  PaceConfig paces;
};

// One window's engine: fresh catalog, stream, estimator and executor.
// `arranged = false` is the private-state population with no catalog.
struct Engine {
  Engine(const Setup& s, bool arranged, int threads, bool traced)
      : source(CloneSource(s.db->source, traced)),
        timed(dynamic_cast<TimedSource*>(source.get())) {
    ExecOptions opts;
    opts.sched.num_threads = threads;
    if (arranged) opts.arrange.catalog = &catalog;
    estimator = std::make_unique<CostEstimator>(s.graph.get(),
                                                &s.db->catalog, opts);
    exec = std::make_unique<AdaptiveExecutor>(
        estimator.get(), source.get(),
        std::vector<double>(kTenants, 1e18), AdaptivePolicy(), opts);
  }

  arrange::ArrangementCatalog catalog;  // outlives the executor
  std::unique_ptr<StreamSource> source;
  TimedSource* timed = nullptr;
  std::unique_ptr<CostEstimator> estimator;
  std::unique_ptr<AdaptiveExecutor> exec;
};

std::vector<ResultMap> Results(const Engine& e) {
  std::vector<ResultMap> out;
  for (QueryId q = 0; q < kTenants; ++q) {
    out.push_back(MaterializeResult(*e.exec->query_output(q), q));
  }
  return out;
}

// Arrangement-layer values at the end of a window.
void AddArrangeLayer(const Engine& e, const Setup& s, LayerSamples* layer) {
  int64_t max_chain = 0, folded = 0, applied = 0, dedup = 0;
  for (const std::string& sig : e.catalog.Signatures()) {
    const arrange::Arrangement* a = e.catalog.Find(sig);
    if (a == nullptr) continue;
    max_chain = std::max(max_chain, a->MaxChainLength());
    folded += a->folded_total();
    applied += a->applied_tuples();
    dedup += a->dedup_skipped();
  }
  int64_t bytes = e.catalog.TotalStateBytes();
  for (int i = 0; i < s.graph->num_subplans(); ++i) {
    bytes += e.exec->subplan_executor(i)->StateBytes();
  }
  layer->Add("arrange.state_bytes_per_query",
             static_cast<double>(bytes) / kTenants, "bytes");
  layer->Add("arrange.count", e.catalog.num_arrangements(), "count");
  layer->Add("arrange.max_chain", static_cast<double>(max_chain), "count");
  layer->Add("arrange.compact_folded", static_cast<double>(folded), "count");
  layer->Add("arrange.dedup_ratio",
             applied + dedup > 0 ? static_cast<double>(dedup) /
                                       static_cast<double>(applied + dedup)
                                 : 0.0,
             "ratio");
}

}  // namespace

void RunArrange128(Outcome* out) {
  const Config& cfg = out->config();
  LayerSamples layer;
  // Traced runs cycle through four window kinds: untraced, traced,
  // untraced at 1 thread (sched.speedup) and untraced with no catalog
  // (arrange.speedup_vs_private).
  constexpr int kSerial = 2, kPrivate = 3;
  WindowLoop loop(out, "arrange128", 4);
  std::unique_ptr<Setup> s;
  std::unique_ptr<Engine> engine;
  loop.Setup(
      [&] {
        engine.reset();
        s.reset();
      },
      [&] {
        Stopwatch gen;
        s = std::make_unique<Setup>();
        s->db = std::make_unique<SalesDb>(kOrders, kCustomers, cfg.seed);
        if (cfg.trace) layer.Add("workload.gen_s", gen.Seconds(), "s");
        s->graph = std::make_unique<SubplanGraph>(
            SubplanGraph::Build(Tenants(s->db->catalog)));
        CHECK(s->graph->Validate().ok());
        for (int j = 0; j < s->graph->num_subplans(); ++j) {
          s->paces.push_back(1 + j % 4);
        }
        engine = std::make_unique<Engine>(*s, /*arranged=*/true, kThreads,
                                          /*traced=*/false);
      });

  double total_work = 0;
  while (loop.Next()) {
    const int kind = loop.kind();
    const bool traced = loop.traced();
    if (engine == nullptr) {
      engine = std::make_unique<Engine>(*s, /*arranged=*/kind != kPrivate,
                                        kind == kSerial ? 1 : kThreads,
                                        traced);
    }
    ExecProbe probe;
    if (traced) probe.Attach(engine->exec.get(), s->graph->num_subplans());
    ObsDelta obs;
    WindowRun win = RunWindow(engine->exec.get(), s->paces);
    obs.Finish();
    if (!loop.Check(win.run.status())) {
      engine.reset();
      continue;
    }
    const AdaptiveRunResult& r = *win.run;
    if (kind == kPrivate) {
      // Private state meters its own work; guard it separately.
      out->Guard("total_work.private", r.run.total_work);
    } else {
      total_work = r.run.total_work;
      out->Guard("total_work", r.run.total_work);
      out->Guard("exec.executions", static_cast<double>(Executions(r.run)));
      out->Guard("arrange.count", engine->catalog.num_arrangements());
    }
    loop.Time(win.window_s, win.trigger_s);
    if (traced) {
      double advance_s = engine->timed->advance_seconds();
      layer.Add("storage.advance_s", advance_s, "s");
      layer.Add("storage.released_tuples",
                static_cast<double>(engine->timed->released_tuples()),
                "count");
      AddExecLayer(*s->graph, r, win.window_s, advance_s, /*serial=*/false,
                   probe, obs, &layer);
      AddArrangeLayer(*engine, *s, &layer);
      layer.Add("sched.pool_tasks", obs.Counter("sched.pool.tasks"), "count");
      layer.Add("sched.step_waves", static_cast<double>(probe.waves()),
                "count");
      layer.Add("sched.idle_share",
                obs.HistogramSum("sched.pool.idle_seconds") /
                    (kThreads * win.window_s),
                "ratio");
    }
    loop.Compare(Results(*engine));
    engine.reset();
  }

  // Output check against the private-state run.
  if (!loop.first().empty()) {
    Engine priv(*s, /*arranged=*/false, kThreads, /*traced=*/false);
    WindowRun win = RunWindow(priv.exec.get(), s->paces);
    out->Attempt(win.run.ok(), "arrange128 private reference: " +
                                   win.run.status().ToString());
    if (win.run.ok()) {
      std::vector<ResultMap> ref = Results(priv);
      for (QueryId q = 0; q < kTenants; ++q) {
        out->Attempt(SameResult(loop.first()[static_cast<size_t>(q)],
                                ref[static_cast<size_t>(q)]),
                     "arrange128 tenant " + std::to_string(q) +
                         " differs from the private-state run");
      }
      SelfTestChecker(ref[1], out);
    }
  }

  if (cfg.trace) {
    const Samples& untraced = loop.KindSamples(0);
    layer.Add("sched.speedup",
              loop.KindSamples(kSerial).Median() / untraced.Median(), "x");
    layer.Add("arrange.speedup_vs_private",
              loop.KindSamples(kPrivate).Median() / untraced.Median(), "x");
  }
  loop.Report(WindowTuples(s->db->source), total_work, &layer);
}

}  // namespace perfbench
