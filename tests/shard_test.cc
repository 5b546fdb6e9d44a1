// Sharded execution tests (DESIGN.md §14): hash partitioner edge cases,
// exchange delivery and drain order, group-consistent crash recovery and
// its checkpoint validation, the slackness straggler policy, and a
// 100-seed sharded-vs-unsharded equivalence property at one and four
// threads.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ishare/chaos/fault_schedule.h"
#include "ishare/harness/result_compare.h"
#include "ishare/harness/shard_harness.h"
#include "ishare/recovery/serializer.h"
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
using shard::ExchangeShardSource;
using shard::OwnerShard;
using shard::ShardedRuntime;
using shard::ShardOptions;
using shard::ShardPlan;

ShardPlan BroadcastCustomer() {
  ShardPlan plan;
  plan.keys = {{"orders", "o_custkey"}};
  return plan;
}

std::vector<DeltaTuple> FullLog(const StreamSource& dataset,
                                const std::string& table) {
  StreamSource probe;
  CHECK(dataset.CloneTablesInto(&probe).ok());
  CHECK(probe.AdvanceToStep(1, 1).ok());
  return probe.buffer(table)->log();
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
  ASSERT_TRUE(fab.Init(source, BroadcastCustomer(), 4).ok());
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
// Exchange delivery and drains.

TEST(ExchangeTest, DrainFollowsDatasetOrderPerOwner) {
  // Three shards at every step of paces 7 and 10, as a group whose
  // shards run those paces would ask for them. Shards 0 and 1 drain after
  // every delivery; shard 2 drains only at the trigger, so its staging
  // holds everything delivered to it until then.
  constexpr int kShards = 3;
  TestDb db(97, 11, 7);
  ExchangeFabric fab;
  ASSERT_TRUE(fab.Init(db.source, CoPartitioned(), kShards).ok());
  const std::map<std::string, int> key_col = {{"customer", 0},
                                              {"orders", 1}};
  std::map<std::string, std::vector<DeltaTuple>> logs;
  for (const auto& [table, col] : key_col) {
    logs[table] = FullLog(db.source, table);
  }
  auto owner = [&](const std::string& table, const DeltaTuple& d) {
    return OwnerShard(d.row[static_cast<size_t>(key_col.at(table))],
                      kShards);
  };
  // Row idx of an n-row table is delivered at num/den once its rank in
  // arrival partition idx mod N is below floor(num * n_p / den).
  auto delivered = [](int64_t idx, int64_t n, const Fraction& f) {
    const int64_t p = idx % kShards;
    const int64_t n_p = (n - p + kShards - 1) / kShards;
    return idx / kShards < f.num * n_p / f.den;
  };

  std::set<Fraction> points;
  for (int pace : {7, 10}) {
    for (int i = 1; i <= pace; ++i) points.insert(Fraction::Make(i, pace));
  }
  std::map<std::string, std::vector<std::vector<DeltaTuple>>> drained;
  std::map<std::string, std::vector<int64_t>> prev_releasable;
  for (const auto& [table, col] : key_col) {
    drained[table].resize(kShards);
    prev_releasable[table].assign(kShards, 0);
  }
  for (const Fraction& f : points) {
    ASSERT_TRUE(fab.DeliverUpTo(f).ok());
    const bool trigger = f.num == f.den;
    int64_t staged_for_2 = 0;
    for (const auto& [table, col] : key_col) {
      const std::vector<DeltaTuple>& log = logs[table];
      for (size_t i = 0; i < log.size(); ++i) {
        if (owner(table, log[i]) == 2 &&
            delivered(static_cast<int64_t>(i),
                      static_cast<int64_t>(log.size()), f)) {
          staged_for_2 += ApproxDeltaBytes(log[i]);
        }
      }
      for (int s = 0; s < kShards; ++s) {
        const int64_t releasable = fab.ReleasableCount(table, s);
        EXPECT_GE(releasable, prev_releasable[table][static_cast<size_t>(s)])
            << table << " shard " << s << " at " << f.num << "/" << f.den;
        prev_releasable[table][static_cast<size_t>(s)] = releasable;
        if (s == 2 && !trigger) continue;
        fab.DrainReleasable(table, s, &drained[table][static_cast<size_t>(s)]);
      }
    }
    if (!trigger) {
      EXPECT_EQ(fab.StagingBytes(2), staged_for_2)
          << "at " << f.num << "/" << f.den;
    }
    // Delivered rows form a prefix in dataset order, so a shard that has
    // drained what it may release stages nothing.
    EXPECT_EQ(fab.StagingBytes(0), 0) << "at " << f.num << "/" << f.den;
    EXPECT_EQ(fab.StagingBytes(1), 0) << "at " << f.num << "/" << f.den;
  }
  EXPECT_EQ(fab.StagingBytes(2), 0);

  // Every row reached its owner exactly once, in dataset order.
  for (const auto& [table, col] : key_col) {
    for (int s = 0; s < kShards; ++s) {
      std::vector<DeltaTuple> expected;
      for (const DeltaTuple& d : logs[table]) {
        if (owner(table, d) == s) expected.push_back(d);
      }
      const auto& got = drained[table][static_cast<size_t>(s)];
      ASSERT_EQ(got.size(), expected.size()) << table << " shard " << s;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].row, expected[i].row)
            << table << " shard " << s << " row " << i;
        EXPECT_EQ(got[i].weight, expected[i].weight);
      }
    }
  }
}

TEST(ExchangeTest, ShardSourceAdvancesOnlyToExactPoints) {
  TestDb db(30, 6, 3);
  ExchangeFabric fab;
  ASSERT_TRUE(fab.Init(db.source, CoPartitioned(), 2).ok());
  EXPECT_EQ(fab.DeliverUpTo(Fraction{3, 2}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fab.DeliverUpTo(Fraction{1, 0}).code(),
            StatusCode::kInvalidArgument);
  ExchangeShardSource src(&fab, 0);
  ASSERT_TRUE(src.AdvanceToStep(1, 1).ok());
  EXPECT_EQ(src.buffer("orders")->size(), fab.OwnedRows("orders", 0));
}

TEST(ExchangeTest, ShardSourceAtN1MatchesPlainSource) {
  TestDb db(45, 9, 21);
  ExchangeFabric fab;
  ASSERT_TRUE(fab.Init(db.source, ShardPlan{}, 1).ok());  // all broadcast
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
  // The stalled shard lagged across repeated beyond-slack boundaries.
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

TEST(ShardRecoveryTest, RestoreRefusesOutOfRangePaceAndPositions) {
  // A group blob whose pace or shard position is out of range, or whose
  // version word is not the current one (version 1 still carried merged
  // result buffers), fails the restore with a status before the exchange
  // delivers anything.
  TestDb db(60, 10, 6);
  ShardOptions so;
  so.num_shards = 2;
  so.plan = CoPartitioned();
  ShardedRuntime rt(&db.catalog, db.source, MakeShardQueries(db.catalog),
                    {1e18, 1e18}, so);
  ASSERT_TRUE(rt.init_status().ok()) << rt.init_status().ToString();
  ASSERT_TRUE(rt.BeginWindow(8).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(rt.RunRound().ok());
  recovery::CheckpointWriter w;
  ASSERT_TRUE(rt.Snapshot(&w).ok());
  const std::string blob(w.data());

  // Layout: version u32 @0, round i64 @4, shards u32 @12, queries u32
  // @16, pace u32 @20, then shard 0's position num i64 @24, den i64 @32.
  int64_t den;
  std::memcpy(&den, blob.data() + 32, sizeof(den));
  ASSERT_GT(den, 0);
  auto patched = [&blob](size_t at, auto value) {
    std::string b = blob;
    std::memcpy(b.data() + at, &value, sizeof(value));
    return b;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"version 1", patched(0, uint32_t{1})},
      {"pace 0", patched(20, uint32_t{0})},
      {"den 0", patched(32, int64_t{0})},
      {"num den+1", patched(24, den + 1)},
  };
  for (const auto& [what, bad] : cases) {
    recovery::CheckpointReader r(bad);
    EXPECT_FALSE(rt.Restore(&r).ok()) << what;
  }

  // The untouched blob still restores and the window completes.
  recovery::CheckpointReader r(blob);
  ASSERT_TRUE(rt.Restore(&r).ok()) << r.status().ToString();
  EXPECT_TRUE(rt.FinishWindow().ok());
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
