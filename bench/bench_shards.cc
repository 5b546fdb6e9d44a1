// Shard bench (DESIGN.md §14): three gates over a partitioned sales
// workload, exiting non-zero unless all hold.
//
//   1. Scaling / bit-exactness: the sharded group at N in {1,2,4} shards
//      and {1,4} executor threads must answer with results equivalent to
//      the serial unsharded baseline — sharding and parallelism are
//      invisible in the answers, at any shape.
//   2. Straggler cycle: a within-slack stall is absorbed (zero shedding,
//      zero escalation); a beyond-slack stall escalates through the
//      degradation ladder and still completes without a safe-stop.
//   3. Kill-one-shard chaos cycle: randomized schedules of shard stalls
//      and crashes (plus memory pressure) across several seeds — every
//      injected crash must produce a real group recovery and the summed
//      answers must stay bit-exact with the baseline.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ishare/chaos/fault_schedule.h"
#include "ishare/common/check.h"
#include "ishare/common/rng.h"
#include "ishare/harness/shard_harness.h"

namespace ishare {
namespace {

const char* PassFail(bool b) { return b ? "PASS" : "FAIL"; }

// Synthetic sales stream sized for the bench. The query family below
// groups and joins on the partition key (o_custkey / c_custkey), so the
// co-partitioning contract holds by construction and the bit-exactness
// gate is meaningful at every shard count.
struct SalesDb {
  Catalog catalog;
  StreamSource source;

  SalesDb(int n_orders, int n_customers, uint64_t seed) {
    Rng rng(seed);
    Schema orders({{"o_id", DataType::kInt64},
                   {"o_custkey", DataType::kInt64},
                   {"o_amount", DataType::kFloat64}});
    Schema customer(
        {{"c_custkey", DataType::kInt64}, {"c_region", DataType::kString}});
    std::vector<Row> order_rows;
    for (int i = 0; i < n_orders; ++i) {
      order_rows.push_back({Value(int64_t{i}),
                            Value(rng.UniformInt(0, n_customers - 1)),
                            Value(rng.UniformDouble(1.0, 500.0))});
    }
    std::vector<Row> customer_rows;
    const char* regions[] = {"ASIA", "EUROPE", "AMERICA"};
    for (int i = 0; i < n_customers; ++i) {
      customer_rows.push_back(
          {Value(int64_t{i}), Value(std::string(regions[i % 3]))});
    }
    CHECK(catalog
              .AddTable("orders", orders,
                        ComputeTableStats(orders, order_rows))
              .ok());
    CHECK(catalog
              .AddTable("customer", customer,
                        ComputeTableStats(customer, customer_rows))
              .ok());
    source.AddTable("orders", orders, std::move(order_rows));
    source.AddTable("customer", customer, std::move(customer_rows));
  }
};

std::vector<QueryPlan> ShardQueries(const Catalog& catalog) {
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

shard::ShardPlan CoPartitioned() {
  shard::ShardPlan plan;
  plan.keys = {{"orders", "o_custkey"}, {"customer", "c_custkey"}};
  return plan;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  PrintHeader("Sharded execution — scaling, straggler and recovery gates",
              cfg);

  const int n_orders = cfg.quick ? 400 : 2000;
  const int n_customers = cfg.quick ? 24 : 64;
  const int max_pace = cfg.quick ? 8 : 12;
  SalesDb db(n_orders, n_customers, cfg.seed);
  std::vector<QueryPlan> plans = ShardQueries(db.catalog);
  std::vector<double> constraints(plans.size(), 1e18);

  // ---- Gate 1: scaling / bit-exactness across shapes --------------------
  bool scaling_ok = true;
  std::printf("\n== sharded vs unsharded, by shape ==\n");
  TextTable st({"shards", "threads", "wall_s", "rounds", "merged", "gates"});
  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      ShardHarnessOptions o;
      o.shard.num_shards = shards;
      o.shard.plan = CoPartitioned();
      o.shard.exec.sched.num_threads = threads;
      o.max_pace = max_pace;
      auto t0 = std::chrono::steady_clock::now();
      Result<ShardReport> rep = RunShardGroup(&db.catalog, db.source, plans,
                                              constraints, {}, o);
      auto t1 = std::chrono::steady_clock::now();
      CHECK(rep.ok()) << rep.status().ToString();
      const ShardReport& r = rep.value();
      scaling_ok = scaling_ok && r.AllGatesPass();
      st.AddRow({std::to_string(shards), std::to_string(threads),
                 TextTable::Num(
                     std::chrono::duration<double>(t1 - t0).count(), 4),
                 std::to_string(r.stats.rounds),
                 std::to_string(r.stats.merged_tuples),
                 r.AllGatesPass() ? "PASS" : r.mismatch.c_str()});
    }
  }
  st.Print();

  // ---- Gate 2: straggler cycle ------------------------------------------
  bool straggler_ok = true;
  {
    ShardHarnessOptions o;
    o.shard.num_shards = 2;
    o.shard.plan = CoPartitioned();
    o.max_pace = max_pace;
    o.regime = StragglerRegime::kWithinSlack;
    chaos::FaultSchedule within;
    within.events.push_back({chaos::ChaosLayer::kShardStall, 2, 1, 0});
    Result<ShardReport> rep = RunShardGroup(&db.catalog, db.source, plans,
                                            constraints, within, o);
    CHECK(rep.ok()) << rep.status().ToString();
    bool ok = rep.value().AllGatesPass();
    straggler_ok = straggler_ok && ok;
    std::printf("\n== straggler cycle ==\n");
    std::printf("within-slack: %s (absorbed %lld, escalations %lld, "
                "dropped %lld)\n",
                ok ? "PASS" : rep.value().mismatch.c_str(),
                static_cast<long long>(rep.value().stats.straggler_absorbed),
                static_cast<long long>(
                    rep.value().stats.straggler_escalations),
                static_cast<long long>(rep.value().dropped_tuples));

    o.regime = StragglerRegime::kBeyondSlack;
    o.shard.straggler.absorb_slack_fraction = 0.01;
    chaos::FaultSchedule beyond;
    beyond.events.push_back({chaos::ChaosLayer::kShardStall, 2, 4, 1});
    rep = RunShardGroup(&db.catalog, db.source, plans, constraints, beyond,
                        o);
    CHECK(rep.ok()) << rep.status().ToString();
    ok = rep.value().AllGatesPass();
    straggler_ok = straggler_ok && ok;
    std::printf("beyond-slack: %s (escalations %lld, ladder level %d, "
                "safe_stopped %d)\n",
                ok ? "PASS" : rep.value().mismatch.c_str(),
                static_cast<long long>(
                    rep.value().stats.straggler_escalations),
                static_cast<int>(rep.value().final_level),
                rep.value().safe_stopped ? 1 : 0);
  }

  // ---- Gate 3: kill-one-shard chaos cycle -------------------------------
  const int chaos_rounds = cfg.quick ? 4 : 12;
  bool recovery_ok = true;
  int64_t recoveries = 0, restarts = 0, crashes_injected = 0;
  std::string first_failure;
  for (int round = 0; round < chaos_rounds && recovery_ok; ++round) {
    ShardHarnessOptions o;
    o.shard.num_shards = 2 + (round % 2) * 2;  // alternate 2 / 4 shards
    o.shard.plan = CoPartitioned();
    o.max_pace = max_pace;
    chaos::ChaosScheduleOptions sopts;
    sopts.max_step = max_pace;
    sopts.num_events = 1;  // background memory pressure
    sopts.num_source_events = 0;
    sopts.shard_events = 2;
    sopts.num_shards_hint = o.shard.num_shards;
    sopts.shard_crash_probability = 0.5;
    chaos::FaultSchedule sched = chaos::FaultSchedule::Random(
        cfg.seed * 100 + static_cast<uint64_t>(round), sopts,
        db.source.TableNames());
    Result<ShardReport> rep = RunShardGroup(&db.catalog, db.source, plans,
                                            constraints, sched, o);
    CHECK(rep.ok()) << rep.status().ToString();
    const ShardReport& r = rep.value();
    recoveries += r.stats.recoveries;
    restarts += r.stats.restarts;
    for (const chaos::InjectionRecord& rec : r.injections) {
      if (rec.layer == chaos::ChaosLayer::kShardCrash) ++crashes_injected;
    }
    if (!r.AllGatesPass()) {
      recovery_ok = false;
      first_failure = "round " + std::to_string(round) + " [" +
                      sched.ToString() + "]: " + r.mismatch;
    }
  }
  // The cycle must actually exercise the crash path, not just survive it.
  recovery_ok = recovery_ok && crashes_injected > 0 && recoveries > 0;
  std::printf("\n== kill-one-shard chaos cycle ==\n");
  std::printf("rounds %d | crashes injected %lld | group recoveries %lld "
              "(rerun fallbacks %lld)\n",
              chaos_rounds, static_cast<long long>(crashes_injected),
              static_cast<long long>(recoveries),
              static_cast<long long>(restarts));
  if (!first_failure.empty()) {
    std::printf("failure: %s\n", first_failure.c_str());
  }

  std::printf("\n== gates ==\n");
  TextTable gates({"gate", "verdict"});
  gates.AddRow({"bit-exact across shard/thread shapes", PassFail(scaling_ok)});
  gates.AddRow({"straggler absorb + escalate cycle", PassFail(straggler_ok)});
  gates.AddRow({"kill-one-shard recovery cycle", PassFail(recovery_ok)});
  gates.Print();
  bool all = scaling_ok && straggler_ok && recovery_ok;
  std::printf("overall: %s\n", PassFail(all));

  int json_rc = FinishBench(cfg, "bench_shards", {});
  return (all && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
