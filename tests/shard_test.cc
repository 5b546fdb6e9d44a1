// Sharded execution tests (DESIGN.md §14): hash partitioner edge cases,
// exchange canonicalization under reorder perturbation, head-of-line
// blocking, the kShardUnavailable classification, group-consistent crash
// recovery, the slackness straggler policy, and a 100-seed sharded-vs-
// unsharded equivalence property at one and four threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ishare/chaos/fault_schedule.h"
#include "ishare/chaos/supervisor.h"
#include "ishare/harness/result_compare.h"
#include "ishare/harness/shard_harness.h"
#include "ishare/shard/exchange.h"
#include "ishare/shard/partitioner.h"
#include "ishare/shard/sharded_runtime.h"
#include "test_util.h"

namespace ishare {
namespace {

using chaos::ChaosEvent;
using chaos::ChaosLayer;
using chaos::ChaosScheduleOptions;
using chaos::FaultSchedule;
using shard::ExchangeFabric;
using shard::ExchangeOptions;
using shard::ExchangeShardSource;
using shard::OwnerShard;
using shard::ShardedRuntime;
using shard::ShardOptions;
using shard::ShardPlan;

// Shard-friendly query family: group-by keys aligned with the partition
// key (the co-partitioning contract), so sharded merges are disjoint
// unions.
std::vector<QueryPlan> MakeShardQueries(const Catalog& catalog) {
  std::vector<QueryPlan> plans;
  {
    PlanBuilder b(&catalog, 0);
    PlanNodePtr orders =
        b.ScanFiltered("orders", Gt(Col("o_amount"), Lit(10.0)));
    plans.push_back({0, "shard_q0",
                     b.Aggregate(orders, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "total"),
                                  CountAgg("n")})});
  }
  {
    PlanBuilder b(&catalog, 1);
    PlanNodePtr orders = b.ScanFiltered("orders", nullptr);
    PlanNodePtr cust = b.ScanFiltered("customer", nullptr);
    PlanNodePtr join = b.Join(orders, cust, {"o_custkey"}, {"c_custkey"});
    plans.push_back({1, "shard_q1",
                     b.Aggregate(join, {"o_custkey"},
                                 {SumAgg(Col("o_amount"), "amt")})});
  }
  return plans;
}

ShardPlan CoPartitioned() {
  ShardPlan plan;
  plan.keys = {{"orders", "o_custkey"}, {"customer", "c_custkey"}};
  return plan;
}

ShardPlan BroadcastCustomer() {
  ShardPlan plan;
  plan.keys = {{"orders", "o_custkey"}};
  return plan;
}

std::vector<DeltaTuple> FullLog(const StreamSource& dataset,
                                const std::string& table) {
  StreamSource probe;
  CHECK(dataset.CloneTablesInto(&probe).ok());
  CHECK(probe.AdvanceTo(1.0).ok());
  return probe.buffer(table)->log();
}

// ---------------------------------------------------------------------------
// Satellite 1: status taxonomy — shard faults are neither transient nor
// backpressure, and classify as kDegrade.

TEST(ShardStatusTest, ShardFaultClassification) {
  Status sf = Status::ShardUnavailable("shard 2 gone");
  EXPECT_TRUE(sf.IsShardFault());
  EXPECT_FALSE(sf.IsTransient());
  EXPECT_FALSE(sf.IsRetryableBackpressure());
  EXPECT_NE(sf.ToString().find("ShardUnavailable"), std::string::npos);
  EXPECT_EQ(chaos::ClassifyFailure(sf), chaos::Reaction::kDegrade);

  // The rest of the taxonomy stays pairwise disjoint.
  Status tr = Status::Unavailable("blip");
  EXPECT_TRUE(tr.IsTransient());
  EXPECT_FALSE(tr.IsShardFault());
  EXPECT_EQ(chaos::ClassifyFailure(tr), chaos::Reaction::kRetry);

  Status bp = Status::ResourceExhausted("full");
  EXPECT_TRUE(bp.IsRetryableBackpressure());
  EXPECT_FALSE(bp.IsShardFault());
  EXPECT_EQ(chaos::ClassifyFailure(bp), chaos::Reaction::kDefer);
}

TEST(ShardStatusTest, CrashWithRecoveryDisabledSurfacesShardUnavailable) {
  TestDb db(40, 8, 5);
  auto plans = MakeShardQueries(db.catalog);
  ShardOptions so;
  so.num_shards = 2;
  so.plan = BroadcastCustomer();
  so.recover_on_crash = false;
  ShardedRuntime rt(&db.catalog, db.source, plans, {1e18, 1e18}, so);
  ASSERT_TRUE(rt.init_status().ok()) << rt.init_status().ToString();
  ASSERT_TRUE(rt.BeginWindow(4).ok());
  ASSERT_TRUE(rt.RunRound().ok());
  ASSERT_TRUE(rt.InjectCrash(1).ok());
  Status st = rt.RunRound();
  EXPECT_EQ(st.code(), StatusCode::kShardUnavailable);
  EXPECT_TRUE(st.IsShardFault());
}

// ---------------------------------------------------------------------------
// Satellite 3: partitioner edge cases.

TEST(PartitionerTest, OwnerShardDeterministicAndN1Collapses) {
  for (int64_t k = 0; k < 50; ++k) {
    Value v(k);
    EXPECT_EQ(OwnerShard(v, 1), 0);
    int owner = OwnerShard(v, 4);
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
    EXPECT_EQ(owner, OwnerShard(v, 4));  // pure function
  }
  Value s(std::string("EUROPE"));
  EXPECT_EQ(OwnerShard(s, 3), OwnerShard(s, 3));
}

TEST(PartitionerTest, ValidateShardKeyRejectsUnknownColumn) {
  Schema orders({{"o_id", DataType::kInt64}});
  ShardPlan plan;
  plan.keys = {{"orders", "no_such_col"}};
  EXPECT_FALSE(shard::ValidateShardKey(plan, "orders", orders).ok());
  // Broadcast tables (absent from the plan) always pass.
  EXPECT_TRUE(shard::ValidateShardKey(plan, "customer", orders).ok());
  ShardPlan good;
  good.keys = {{"orders", "o_id"}};
  EXPECT_TRUE(shard::ValidateShardKey(good, "orders", orders).ok());
}

TEST(PartitionerTest, SkewAllKeysToOneShardLeavesOthersEmpty) {
  // Every order carries the same key: one shard owns everything, the
  // rest run empty — and the group still matches the baseline.
  Schema orders({{"o_id", DataType::kInt64},
                 {"o_custkey", DataType::kInt64},
                 {"o_amount", DataType::kFloat64}});
  Schema customer(
      {{"c_custkey", DataType::kInt64}, {"c_region", DataType::kString}});
  std::vector<Row> order_rows;
  for (int i = 0; i < 30; ++i) {
    order_rows.push_back({Value(int64_t{i}), Value(int64_t{5}),
                          Value(1.0 + static_cast<double>(i))});
  }
  std::vector<Row> customer_rows;
  for (int i = 0; i < 8; ++i) {
    customer_rows.push_back({Value(int64_t{i}), Value(std::string("ASIA"))});
  }
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable("orders", orders,
                            ComputeTableStats(orders, order_rows))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddTable("customer", customer,
                            ComputeTableStats(customer, customer_rows))
                  .ok());
  StreamSource source;
  source.AddTable("orders", orders, order_rows);
  source.AddTable("customer", customer, customer_rows);

  ExchangeFabric fab;
  ExchangeOptions xo;
  xo.num_shards = 4;
  ASSERT_TRUE(fab.Init(source, BroadcastCustomer(), xo).ok());
  int shards_with_rows = 0;
  int64_t total_owned = 0;
  for (int s = 0; s < 4; ++s) {
    int64_t owned = fab.OwnedRows("orders", s);
    total_owned += owned;
    shards_with_rows += owned > 0 ? 1 : 0;
  }
  EXPECT_EQ(shards_with_rows, 1);  // skew: one owner, three empty shards
  EXPECT_EQ(total_owned, 30);

  ShardHarnessOptions o;
  o.shard.num_shards = 4;
  o.shard.plan = BroadcastCustomer();
  o.max_pace = 4;
  auto rep = RunShardGroup(&catalog, source, MakeShardQueries(catalog),
                           {1e18, 1e18}, FaultSchedule{}, o);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().AllGatesPass()) << rep.value().mismatch;
}

// ---------------------------------------------------------------------------
// Satellite 2: exchange canonicalization.

TEST(ExchangeTest, CanonicalDrainOrderUnderReorderPerturbation) {
  TestDb db(48, 8, 7);
  ExchangeFabric fab;
  ExchangeOptions xo;
  xo.num_shards = 2;
  xo.num_partitions = 3;
  // Reorder the whole window on every partition clock: delivery order is
  // scrambled, consumption order must stay canonical.
  FaultEvent reorder;
  reorder.kind = FaultEvent::Kind::kReorder;
  reorder.at = 0.0;
  reorder.duration = 1.0;
  xo.partition_perturbation.seed = 11;
  xo.partition_perturbation.events.push_back(reorder);
  ASSERT_TRUE(fab.Init(db.source, CoPartitioned(), xo).ok());

  std::vector<DeltaTuple> orders_log = FullLog(db.source, "orders");
  std::vector<std::vector<DeltaTuple>> drained(2);
  std::vector<int64_t> prev_releasable(2, 0);
  for (int i = 1; i <= 10; ++i) {
    Fraction f{i, 10};
    ASSERT_TRUE(fab.DeliverUpTo(f.ToDouble(), &f).ok());
    for (int s = 0; s < 2; ++s) {
      int64_t releasable = fab.ReleasableCount("orders", s);
      EXPECT_GE(releasable, prev_releasable[static_cast<size_t>(s)])
          << "releasable prefix moved backwards";
      prev_releasable[static_cast<size_t>(s)] = releasable;
      int64_t have = fab.ConsumedCount("orders", s);
      if (releasable > have) {
        // DrainCanonical CHECK-dies on any non-canonical order.
        ASSERT_TRUE(fab.DrainCanonical("orders", s, releasable - have,
                                       &drained[static_cast<size_t>(s)])
                        .ok());
      }
    }
  }
  // Every row was routed and drained exactly once, in dataset order
  // restricted to the owner — reorder delays consumption, never scrambles
  // or loses it.
  int key_col = 1;  // o_custkey
  for (int s = 0; s < 2; ++s) {
    std::vector<DeltaTuple> expected;
    for (const DeltaTuple& d : orders_log) {
      if (OwnerShard(d.row[static_cast<size_t>(key_col)], 2) == s) {
        expected.push_back(d);
      }
    }
    const auto& got = drained[static_cast<size_t>(s)];
    ASSERT_EQ(got.size(), expected.size()) << "shard " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(RowsNear(got[i].row, expected[i].row))
          << "shard " << s << " row " << i;
    }
  }
}

TEST(ExchangeTest, HeldPartitionHeadOfLineBlocksUntilTrigger) {
  TestDb db(40, 8, 9);
  ExchangeFabric fab;
  ExchangeOptions xo;
  xo.num_shards = 1;
  xo.num_partitions = 2;
  ASSERT_TRUE(fab.Init(db.source, BroadcastCustomer(), xo).ok());
  ASSERT_TRUE(fab.HoldPartition(0).ok());
  EXPECT_TRUE(fab.IsHeld(0));
  EXPECT_EQ(fab.stats().holds, 1);

  Fraction half{1, 2};
  ASSERT_TRUE(fab.DeliverUpTo(0.5, &half).ok());
  // Partition 0 owns global index 0; while it is held the canonical
  // prefix is empty even though partition 1 delivered plenty.
  EXPECT_EQ(fab.ReleasableCount("orders", 0), 0);
  EXPECT_GT(fab.StagingBytes(0), 0);  // rows staged, none consumable

  ASSERT_TRUE(fab.ReleasePartition(0).ok());
  ASSERT_TRUE(fab.DeliverUpTo(0.5, &half).ok());
  EXPECT_GT(fab.ReleasableCount("orders", 0), 0);

  // The trigger flushes held partitions too: a stall delays, never loses.
  ASSERT_TRUE(fab.HoldPartition(1).ok());
  Fraction one{1, 1};
  ASSERT_TRUE(fab.DeliverUpTo(1.0, &one).ok());
  EXPECT_EQ(fab.ReleasableCount("orders", 0),
            static_cast<int64_t>(FullLog(db.source, "orders").size()));
}

TEST(ExchangeTest, ShardSourceAtN1MatchesPlainSource) {
  TestDb db(45, 9, 21);
  ExchangeFabric fab;
  ExchangeOptions xo;
  xo.num_shards = 1;
  xo.num_partitions = 1;
  ASSERT_TRUE(fab.Init(db.source, ShardPlan{}, xo).ok());  // all broadcast
  ExchangeShardSource via_fabric(&fab, 0);

  StreamSource plain;
  ASSERT_TRUE(db.source.CloneTablesInto(&plain).ok());

  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(via_fabric.AdvanceToStep(i, 5).ok());
    ASSERT_TRUE(plain.AdvanceToStep(i, 5).ok());
    for (const std::string& name : plain.TableNames()) {
      ASSERT_EQ(via_fabric.buffer(name)->size(), plain.buffer(name)->size())
          << name << " at step " << i << "/5";
    }
  }
  for (const std::string& name : plain.TableNames()) {
    const auto& a = via_fabric.buffer(name)->log();
    const auto& b = plain.buffer(name)->log();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(RowsNear(a[i].row, b[i].row)) << name << " row " << i;
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded-vs-unsharded equivalence.

TEST(ShardedRuntimeTest, BitExactAcrossShardCountsAndPlans) {
  TestDb db(60, 10, 42);
  auto plans = MakeShardQueries(db.catalog);
  for (int n : {1, 2, 4}) {
    for (bool broadcast : {true, false}) {
      ShardHarnessOptions o;
      o.shard.num_shards = n;
      o.shard.plan = broadcast ? BroadcastCustomer() : CoPartitioned();
      o.max_pace = 6;
      auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18},
                               FaultSchedule{}, o);
      ASSERT_TRUE(rep.ok()) << rep.status().ToString();
      EXPECT_TRUE(rep.value().AllGatesPass())
          << "n=" << n << " broadcast=" << broadcast << ": "
          << rep.value().mismatch;
      EXPECT_EQ(rep.value().queries_checked, 2);
    }
  }
}

TEST(ShardedRuntimeTest, Property100SeedsShardedMatchesUnsharded) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    TestDb db(40 + static_cast<int>(seed % 20), 8, seed);
    auto plans = MakeShardQueries(db.catalog);
    ShardHarnessOptions o;
    const int shard_counts[] = {1, 2, 4};
    o.shard.num_shards = shard_counts[seed % 3];
    o.shard.plan = (seed % 2 == 0) ? BroadcastCustomer() : CoPartitioned();
    // Half the seeds run every shard's executor on a 4-thread pool: the
    // merge and the equivalence must be thread-count-invariant.
    o.shard.exec.sched.num_threads = (seed % 4 < 2) ? 1 : 4;
    o.max_pace = 4 + static_cast<int>(seed % 3);
    auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18},
                             FaultSchedule{}, o);
    ASSERT_TRUE(rep.ok()) << "seed " << seed << ": "
                          << rep.status().ToString();
    ASSERT_TRUE(rep.value().AllGatesPass())
        << "seed " << seed << ": " << rep.value().mismatch;
  }
}

// ---------------------------------------------------------------------------
// Straggler policy (acceptance gates b and c).

TEST(ShardStragglerTest, WithinSlackAbsorbedWithZeroShedding) {
  TestDb db(60, 10, 3);
  auto plans = MakeShardQueries(db.catalog);
  ShardHarnessOptions o;
  o.shard.num_shards = 2;
  o.shard.plan = BroadcastCustomer();
  o.max_pace = 8;
  o.regime = StragglerRegime::kWithinSlack;
  FaultSchedule sch;
  sch.events.push_back({ChaosLayer::kShardStall, 2, 1, 0});  // shard 0, 1 round
  auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18}, sch,
                           o);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const ShardReport& r = rep.value();
  EXPECT_TRUE(r.AllGatesPass()) << r.mismatch;
  EXPECT_GT(r.stats.straggler_absorbed, 0);
  EXPECT_EQ(r.stats.straggler_escalations, 0);
  EXPECT_EQ(r.dropped_tuples, 0);
}

TEST(ShardStragglerTest, BeyondSlackEscalatesThroughLadderWithoutSafeStop) {
  TestDb db(60, 10, 4);
  auto plans = MakeShardQueries(db.catalog);
  ShardHarnessOptions o;
  o.shard.num_shards = 2;
  o.shard.plan = BroadcastCustomer();
  o.shard.straggler.absorb_slack_fraction = 0.01;  // allowance collapses to 1
  o.max_pace = 8;
  o.regime = StragglerRegime::kBeyondSlack;
  FaultSchedule sch;
  sch.events.push_back({ChaosLayer::kShardStall, 2, 3, 1});  // shard 1, 3 rounds
  auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18}, sch,
                           o);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const ShardReport& r = rep.value();
  EXPECT_TRUE(r.AllGatesPass()) << r.mismatch;
  EXPECT_GE(r.stats.straggler_escalations, 1);
  EXPECT_FALSE(r.safe_stopped);
  // The per-shard health breaker saw repeated beyond-slack boundaries.
  EXPECT_GE(r.stats.straggler_lag_steps, 2);
}

// ---------------------------------------------------------------------------
// Shard-consistent crash recovery (acceptance gate a).

TEST(ShardRecoveryTest, KillOneShardMidWindowRestoresConsistentEpoch) {
  TestDb db(60, 10, 6);
  auto plans = MakeShardQueries(db.catalog);
  ShardHarnessOptions o;
  o.shard.num_shards = 2;
  o.shard.plan = CoPartitioned();
  o.max_pace = 8;  // epochs commit every 2 rounds (ShardOptions default)
  FaultSchedule sch;
  sch.events.push_back({ChaosLayer::kShardCrash, 4, 1, 1});  // crash shard 1
  auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18}, sch,
                           o);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const ShardReport& r = rep.value();
  EXPECT_TRUE(r.AllGatesPass()) << r.mismatch;
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.restarts, 0);  // an epoch had committed: restore, not rerun
  EXPECT_GE(r.stats.restored_from_epoch, 1);
  EXPECT_GE(r.checkpoints, 1);
}

TEST(ShardRecoveryTest, CrashBeforeFirstEpochFallsBackToRerun) {
  TestDb db(48, 8, 8);
  auto plans = MakeShardQueries(db.catalog);
  ShardHarnessOptions o;
  o.shard.num_shards = 2;
  o.shard.plan = BroadcastCustomer();
  o.max_pace = 6;
  FaultSchedule sch;
  sch.events.push_back({ChaosLayer::kShardCrash, 1, 1, 0});  // before round 1
  auto rep = RunShardGroup(&db.catalog, db.source, plans, {1e18, 1e18}, sch,
                           o);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  const ShardReport& r = rep.value();
  EXPECT_TRUE(r.AllGatesPass()) << r.mismatch;
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_GE(r.stats.restarts, 1);  // nothing committed yet: rerun the window
}

// ---------------------------------------------------------------------------
// Schedule plumbing.

TEST(ShardScheduleTest, ShardEventsAppendWithoutDisturbingBaseSchedule) {
  ChaosScheduleOptions base;
  base.num_events = 6;
  FaultSchedule a = FaultSchedule::Random(99, base, {"orders"});

  ChaosScheduleOptions with_shards = base;
  with_shards.shard_events = 3;
  with_shards.num_shards_hint = 4;
  FaultSchedule b = FaultSchedule::Random(99, with_shards, {"orders"});
  ASSERT_TRUE(b.Validate().ok());

  // Filtering the shard events out of `b` recovers `a` byte-for-byte:
  // shard events draw after every other layer, like churn before them.
  std::vector<ChaosEvent> filtered;
  int shard_events = 0;
  for (const ChaosEvent& ev : b.events) {
    if (ev.layer == ChaosLayer::kShardStall ||
        ev.layer == ChaosLayer::kShardCrash) {
      ++shard_events;
      EXPECT_GE(static_cast<int>(ev.magnitude), 0);
      EXPECT_LT(static_cast<int>(ev.magnitude), 4);
      continue;
    }
    filtered.push_back(ev);
  }
  EXPECT_EQ(shard_events, 3);
  ASSERT_EQ(filtered.size(), a.events.size());
  for (size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(filtered[i].ToString(), a.events[i].ToString()) << i;
  }
}

}  // namespace
}  // namespace ishare
