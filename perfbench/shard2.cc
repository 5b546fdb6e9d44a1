// shard2: the only workload through the exchange, the result merge, group
// checkpoint encoding and the supervisor. A 2-shard ShardedRuntime over a
// co-partitioned sales stream runs two queries that group and join on the
// partition key (a filtered per-customer aggregate, and a join plus
// aggregate) at max_pace 12. Group checkpoints keep their defaults: every
// 2 rounds, into the runtime's in-memory store.
//
// Output check: every window's merged results must equal the unsharded
// reference (one serial engine over the whole dataset at pace 1).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "ishare/harness/shard_harness.h"
#include "ishare/plan/builder.h"
#include "ishare/shard/sharded_runtime.h"

namespace perfbench {

using namespace ishare;

namespace {

// At 200k orders a window took 10x as long as at 50k, not 4x, and six runs
// of one seed on a shared host spread twice as wide (quartile distance /
// median of the run's window time: 0.61 against 0.32 at 50k).
constexpr int kOrders = 50000;
constexpr int kCustomers = 256;
constexpr int kShards = 2;
constexpr int kMaxPace = 12;

std::vector<QueryPlan> Queries(const Catalog& catalog) {
  std::vector<QueryPlan> plans;
  {
    PlanBuilder b(&catalog, 0);
    PlanNodePtr orders =
        b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(50.0)));
    plans.push_back({0, "per_customer_total",
                     b.Aggregate(orders, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "total"),
                                  CountAgg("n")})});
  }
  {
    PlanBuilder b(&catalog, 1);
    PlanNodePtr orders = b.ScanFiltered("orders", nullptr);
    PlanNodePtr cust = b.ScanFiltered("customer", nullptr);
    PlanNodePtr join = b.Join(orders, cust, {"o_custkey"}, {"c_custkey"});
    plans.push_back({1, "per_customer_joined",
                     b.Aggregate(join, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "amt")})});
  }
  return plans;
}

shard::ShardOptions Options() {
  shard::ShardOptions o;
  o.num_shards = kShards;
  o.plan.keys = {{"orders", "o_custkey"}, {"customer", "c_custkey"}};
  return o;
}

struct Setup {
  std::unique_ptr<SalesDb> db;
  std::vector<QueryPlan> plans;
  std::vector<double> constraints;
};

std::unique_ptr<shard::ShardedRuntime> MakeRuntime(const Setup& s) {
  auto rt = std::make_unique<shard::ShardedRuntime>(
      &s.db->catalog, s.db->source, s.plans, s.constraints, Options());
  CHECK(rt->init_status().ok()) << rt->init_status().ToString();
  return rt;
}

}  // namespace

void RunShard2(Outcome* out) {
  const Config& cfg = out->config();
  LayerSamples layer;
  // Rounds are timed from outside in every window, so a traced window runs
  // exactly like an untraced one: every window of a traced run is traced
  // and trace.overhead is not measured.
  WindowLoop loop(out, "shard2", 1);
  std::unique_ptr<Setup> s;
  std::unique_ptr<shard::ShardedRuntime> rt;
  loop.Setup(
      [&] {
        rt.reset();
        s.reset();
      },
      [&] {
        Stopwatch gen;
        s = std::make_unique<Setup>();
        s->db = std::make_unique<SalesDb>(kOrders, kCustomers, cfg.seed);
        if (cfg.trace) layer.Add("workload.gen_s", gen.Seconds(), "s");
        s->plans = Queries(s->db->catalog);
        s->constraints.assign(s->plans.size(), 1e18);
        rt = MakeRuntime(*s);
      });

  double total_work = 0;
  const int nq = static_cast<int>(s->plans.size());
  while (loop.Next()) {
    if (rt == nullptr) rt = MakeRuntime(*s);
    ObsDelta obs;
    Samples rounds;
    double trigger = 0;
    Stopwatch sw;
    Status st = rt->BeginWindow(kMaxPace);
    while (st.ok() && rt->HasPendingRounds()) {
      Stopwatch round;
      st = rt->RunRound();
      trigger = round.Seconds();
      rounds.Add(trigger);
    }
    Result<shard::ShardRunResult> r =
        st.ok() ? rt->FinishWindow() : Result<shard::ShardRunResult>(st);
    double win_s = sw.Seconds();
    obs.Finish();
    if (!loop.Check(r.status())) {
      rt.reset();
      continue;
    }
    double work = 0;
    int64_t executions = 0;
    for (const AdaptiveRunResult& sr : r->shards) {
      work += sr.run.total_work;
      executions += Executions(sr.run);
    }
    total_work = work;
    out->Guard("total_work", work);
    out->Guard("exec.executions", static_cast<double>(executions));
    out->Guard("shard.rounds", static_cast<double>(r->stats.rounds));
    loop.Time(win_s, trigger);
    if (loop.traced()) {
      layer.Add("shard.round_s", rounds.Median(), "s");
      layer.Add("shard.rounds", static_cast<double>(r->stats.rounds), "count");
      layer.Add("shard.merged_tuples",
                static_cast<double>(r->stats.merged_tuples), "count");
      layer.Add("shard.exchange_delivered_tuples",
                static_cast<double>(r->exchange.delivered_tuples), "count");
      layer.Add("shard.exchange_drained_tuples",
                static_cast<double>(r->exchange.drained_tuples), "count");
      layer.Add("recovery.checkpoints", static_cast<double>(r->checkpoints),
                "count");
      layer.Add("recovery.checkpoint_bytes",
                static_cast<double>(
                    rt->checkpoint_manager()->stats().checkpoint_bytes),
                "bytes");
      layer.Add("recovery.encode_s",
                obs.SpanSeconds("recovery.checkpoint.encode"), "s");
      layer.Add("exec.executions", static_cast<double>(executions), "count");
      layer.Add("exec.work_per_s", work / win_s, "work/s");
    }
    std::vector<ResultMap> got;
    for (QueryId q = 0; q < nq; ++q) {
      auto m = rt->QueryResult(q);
      got.push_back(m.ok() ? std::move(m).value() : ResultMap());
    }
    loop.Compare(std::move(got));
    rt.reset();
  }

  // Output check against the unsharded reference.
  if (!loop.first().empty()) {
    auto ref = UnshardedReference(&s->db->catalog, s->db->source, s->plans,
                                  s->constraints);
    out->Attempt(ref.ok(), "shard2 unsharded reference: " +
                               ref.status().ToString());
    if (ref.ok()) {
      for (QueryId q = 0; q < nq; ++q) {
        out->Attempt(SameResult(loop.first()[static_cast<size_t>(q)],
                                (*ref)[static_cast<size_t>(q)]),
                     "shard2 query " + std::to_string(q) +
                         " differs from the unsharded reference");
      }
      SelfTestChecker((*ref)[1], out);
    }
  }

  loop.Report(WindowTuples(s->db->source), total_work, &layer);
}

}  // namespace perfbench
