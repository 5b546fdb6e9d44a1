// Equivalence digest: one line per run over a fixed corpus, pinned in
// tests/golden/digest.txt. A change that claims bit-exact plans and
// execution moves no line; a change that means to move paces, plans or
// work re-pins the file and says which lines moved.
//
// Every line is space-separated and starts with its kind and run id.
//
//   opt <config-id> <approach> paces=<p0,p1,...>
//       subplans=<{q..}:<hash>;...> total=<%a> final=<%a,...> misses=<n>
//
//   config-id  <workload>.s<seed>.sf<sf>.J<max_pace>.<constraints>[.nomemo]
//   approach   a space-free approach token
//   paces      the chosen pace of every subplan, by subplan index
//   subplans   each subplan's query set and a 64-bit FNV-1a hash of its
//              root's FullSignature(), by subplan index
//   total      est_cost.total_work as a C99 hex float
//   final      est_cost.query_final_work, by query id, as hex floats
//   misses     OptimizedPlan::memo_misses (the pace search's simulations)
//
//   exec <run-id> total=<%a> final=<%a,...> rows=<h,...> series=<h,...>
//       fp=<h> state=<b,...> counters=<h>
//
//   One AdaptiveExecutor window: the 22-query iShare plan (static and
//   estimator-driven) and the scheduler property's random shared plans
//   (tests/test_util.h), each at 1 and 4 threads.
//   total      run.total_work; final: run.query_final_work, by query id
//   rows       per query, a hash of its materialized rows (row hash and
//              multiplicity, sorted)
//   series     per subplan, a hash of its per-execution work and data
//              fraction series (exact bits)
//   fp         a hash of StateFingerprint()
//   state      per subplan, SubplanExecutor::StateBytes()
//   counters   a hash of every counter and gauge except timings (names
//              containing "seconds"), sched.pool.* and
//              flow.budget.peak_bytes, whose values depend on which worker
//              ran what
//
//   shard <run-id> rows=<h,...> total=<%a;...> final=<...;...>
//       series=<...;...> fp=<h;...> state=<...;...> base=<...;...>
//       xchg=<delivered_tuples,delivered_bytes,drained_tuples>
//       group=<ShardGroupStats, declaration order> counters=<h>
//
//   One ShardedRuntime window of the co-partitioned two-query family;
//   rows are the merged group results, and every per-shard field lists
//   its shards in id order separated by ';'. base is, per table in name
//   order, a hash of the shard's base log.
//
//   chaos <run-id> sched=<h> gates=<c,r,z,b> level=<n> sup=<...>
//       ladder=<...> breakers=<...> recovery=<...> flow=<...>
//       budget=<b> peak=<b> counters=<h>
//   chaos <run-id> sched=<h>
//
//   One RunChaos window (default ChaosOptions) of the shared DAG
//   (tests/test_util.h) under FaultSchedule::Random(seed): the composed
//   sweep of chaos_test at paces {2,2,4} over 4 steps, and a long window
//   at paces {16,16,32} over 32 steps. The second form pins a schedule
//   alone, drawn with churn and shard events.
//   sched      a hash of the seed and every event's layer, step, count
//              and magnitude bits, the source plan's events included
//   gates      the four ChaosReport gates (0/1); level: final_level
//   sup        every SupervisorStats value, declaration order
//   ladder     step:from>to:<cause hash> per ladder transition
//   breakers   step:name:from>to:<cause hash> per breaker transition
//   recovery   every non-timing RecoveryStats value, declaration order
//              (the virtual store backoff as a hex float)
//   flow       FlowStats counts, declaration order, then the per-query
//              deferred and dropped tallies
//   budget     budget_bytes; peak: peak_baseline
//
//   arrange <run-id> total=... counters=<h>
//
//   One AdaptiveExecutor window of arrange_test's random workloads
//   (tests/test_util.h) with and without an ArrangementCatalog, with and
//   without a track-only budget, at the workload's thread count; the
//   fields are the exec line's.
//
//   retract <run-id> total=... counters=<h>
//
//   The arrange lines' runs over the retracting TestDb, whose orders
//   stream deletes and updates rows, so join buckets and aggregate groups
//   see retractions through the arrangements.
//
// Usage:
//   ishare_digest                       print every line
//   ishare_digest --golden=<file>       check every line against <file>
//   ishare_digest --golden=<file> --stride=<k>
//                                       check every k-th line only
//   ishare_digest --kind=<k>[,<k>...]   restrict either mode to the given
//                                       line kinds (stride counts within
//                                       them)
// A check prints the first line that differs and exits 1. With the obs
// layer compiled out, counters fields are not compared. The corpus also
// asserts that the w/o-memo run's plan equals the memoized run's.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ishare/arrange/arrangement.h"
#include "ishare/chaos/fault_schedule.h"
#include "ishare/common/hash.h"
#include "ishare/common/parse.h"
#include "ishare/common/rng.h"
#include "ishare/cost/estimator.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/harness/chaos_harness.h"
#include "ishare/obs/obs.h"
#include "ishare/opt/approaches.h"
#include "ishare/shard/sharded_runtime.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"
#include "test_util.h"

namespace ishare {
namespace {

enum class Workload { kTpch22, kFriendly10, kDecomposition20 };

struct DigestConfig {
  std::string id;
  Workload workload = Workload::kTpch22;
  double sf = 0.01;
  uint64_t seed = 7;
  int max_pace = 50;
  std::vector<double> rel;  // filled from the workload when empty
  double uniform_rel = 1.0;
  Approach approach = Approach::kIShare;
  bool memo = true;
};

const char* ApproachToken(Approach a) {
  switch (a) {
    case Approach::kNoShareUniform:
      return "NoShare-Uniform";
    case Approach::kNoShareNonuniform:
      return "NoShare-Nonuniform";
    case Approach::kShareUniform:
      return "Share-Uniform";
    case Approach::kIShareNoUnshare:
      return "iShare-wo-unshare";
    case Approach::kIShare:
      return "iShare";
    case Approach::kIShareBruteForce:
      return "iShare-BruteForce";
  }
  return "?";
}

const char* WorkloadToken(Workload w) {
  switch (w) {
    case Workload::kTpch22:
      return "tpch22";
    case Workload::kFriendly10:
      return "friendly10";
    case Workload::kDecomposition20:
      return "decomp20";
  }
  return "?";
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string ConfigId(const DigestConfig& c, const std::string& constraints) {
  std::string id = std::string(WorkloadToken(c.workload)) + ".s" +
                   std::to_string(c.seed) + ".sf" + Fmt("%g", c.sf) + ".J" +
                   std::to_string(c.max_pace) + "." + constraints;
  if (!c.memo) id += ".nomemo";
  return id;
}

// The corpus, in line order. Every bench default is sf 0.01, seed 7,
// max_pace 50 unless a configuration says otherwise.
std::vector<DigestConfig> Corpus() {
  std::vector<DigestConfig> out;
  auto add = [&out](DigestConfig c, const std::string& constraints) {
    c.id = ConfigId(c, constraints);
    out.push_back(std::move(c));
  };
  const double kLevels[] = {1.0, 0.5, 0.2, 0.1};

  // The 22-query plan at each uniform constraint, seeds 1 and 7.
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    for (double r : kLevels) {
      for (Approach a : {Approach::kShareUniform, Approach::kIShareNoUnshare,
                         Approach::kIShare}) {
        DigestConfig c;
        c.seed = seed;
        c.uniform_rel = r;
        c.approach = a;
        add(c, "r" + Fmt("%g", r));
      }
    }
  }

  // Fig. 15's paper setting: r = 0.01 at J = 100.
  {
    DigestConfig c;
    c.max_pace = 100;
    c.uniform_rel = 0.01;
    add(c, "r0.01");
  }

  // Fig. 9's random constraint sets (its full-mode three sets, drawn from
  // the bench's own Rng(1234) stream) under its four approaches.
  {
    Rng rng(1234);
    for (int set = 0; set < 3; ++set) {
      std::vector<double> rel(22);
      for (double& r : rel) r = kLevels[rng.UniformInt(0, 3)];
      for (Approach a : {Approach::kNoShareUniform,
                         Approach::kNoShareNonuniform,
                         Approach::kShareUniform, Approach::kIShare}) {
        DigestConfig c;
        c.rel = rel;
        c.approach = a;
        add(c, "set" + std::to_string(set));
      }
    }
  }

  // Fig. 12's 10 sharing-friendly queries under its four approaches.
  for (double r : kLevels) {
    for (Approach a :
         {Approach::kNoShareUniform, Approach::kNoShareNonuniform,
          Approach::kShareUniform, Approach::kIShare}) {
      DigestConfig c;
      c.workload = Workload::kFriendly10;
      c.uniform_rel = r;
      c.approach = a;
      add(c, "r" + Fmt("%g", r));
    }
  }

  // Fig. 14's decomposition workload: iShare and the brute-force split.
  for (double r : kLevels) {
    for (Approach a : {Approach::kIShare, Approach::kIShareBruteForce}) {
      DigestConfig c;
      c.workload = Workload::kDecomposition20;
      c.uniform_rel = r;
      c.approach = a;
      add(c, "r" + Fmt("%g", r));
    }
  }

  // Fig. 15's quick setting with and without the memo; the two plans must
  // be equal (checked in Main).
  for (bool memo : {true, false}) {
    DigestConfig c;
    c.sf = 0.004;
    c.max_pace = 10;
    c.uniform_rel = 0.01;
    c.memo = memo;
    add(c, "r0.01");
  }
  return out;
}

// Datasets are shared by every configuration with the same (sf, seed).
const TpchDb& Db(double sf, uint64_t seed) {
  static std::map<std::pair<double, uint64_t>, std::unique_ptr<TpchDb>> dbs;
  std::unique_ptr<TpchDb>& db = dbs[{sf, seed}];
  if (db == nullptr) db = std::make_unique<TpchDb>(TpchScale{sf, seed});
  return *db;
}

std::string DigestLine(const DigestConfig& c) {
  const TpchDb& db = Db(c.sf, c.seed);
  std::vector<QueryPlan> queries;
  switch (c.workload) {
    case Workload::kTpch22:
      queries = AllTpchQueries(db.catalog);
      break;
    case Workload::kFriendly10:
      queries = SharingFriendlyQueries(db.catalog);
      break;
    case Workload::kDecomposition20:
      queries = DecompositionWorkload(db.catalog);
      break;
  }
  std::vector<double> rel = c.rel;
  if (rel.empty()) rel.assign(queries.size(), c.uniform_rel);
  ApproachOptions opts;
  opts.max_pace = c.max_pace;
  opts.memoized_estimator = c.memo;
  OptimizedPlan plan = OptimizePlan(c.approach, queries, db.catalog, rel, opts);

  std::string line = "opt " + c.id + " " + ApproachToken(c.approach);
  line += " paces=";
  for (size_t i = 0; i < plan.paces.size(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(plan.paces[i]);
  }
  line += " subplans=";
  for (int s = 0; s < plan.graph.num_subplans(); ++s) {
    const Subplan& sp = plan.graph.subplan(s);
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      HashString(sp.root->FullSignature())));
    if (s > 0) line += ";";
    line += sp.queries.ToString() + ":" + hash;
  }
  line += " total=" + Fmt("%a", plan.est_cost.total_work);
  line += " final=";
  for (size_t q = 0; q < plan.est_cost.query_final_work.size(); ++q) {
    if (q > 0) line += ",";
    line += Fmt("%a", plan.est_cost.query_final_work[q]);
  }
  line += " misses=" + std::to_string(plan.memo_misses);
  return line;
}

// ---- execution lines -------------------------------------------------

std::string Hex(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

template <typename T, typename F>
std::string Join(const std::vector<T>& xs, const char* sep, F fmt) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += sep;
    out += fmt(xs[i]);
  }
  return out;
}

std::string HexFloat(double d) { return Fmt("%a", d); }

// Order-free hash of a materialized result: (row hash, multiplicity)
// pairs, sorted.
uint64_t RowsHash(const std::unordered_map<Row, int64_t, RowHasher>& rows) {
  std::vector<std::pair<uint64_t, int64_t>> keyed;
  keyed.reserve(rows.size());
  for (const auto& [row, mult] : rows) keyed.emplace_back(HashRow(row), mult);
  std::sort(keyed.begin(), keyed.end());
  uint64_t h = keyed.size();
  for (const auto& [rh, mult] : keyed) {
    h = HashCombine(HashCombine(h, rh), static_cast<uint64_t>(mult));
  }
  return h;
}

uint64_t SeriesHash(const SubplanRunStats& st) {
  uint64_t h = st.work_per_exec.size();
  for (double w : st.work_per_exec) h = HashCombine(h, Bits(w));
  for (double f : st.exec_fraction) h = HashCombine(h, Bits(f));
  return h;
}

uint64_t LogHash(const DeltaBuffer& buf) {
  uint64_t h = HashCombine(static_cast<uint64_t>(buf.size()),
                           static_cast<uint64_t>(buf.trimmed()));
  for (const DeltaTuple& d : buf.log()) {
    h = HashCombine(HashCombine(h, HashRow(d.row)),
                    static_cast<uint64_t>(d.weight));
  }
  return h;
}

// Every counter and gauge except timings, the pool's own series and the
// budget's peak: those vary with which worker ran what (MemoryBudget::peak
// is reporting-only for that reason).
uint64_t CountersHash() {
  obs::MetricsSnapshot snap = obs::Registry().Snapshot();
  uint64_t h = 0;
  for (const std::map<std::string, double>* series :
       {&snap.counters, &snap.gauges}) {
    h = HashCombine(h, 0x5e7);  // counters, then gauges
    for (const auto& [name, value] : *series) {
      if (name.find("seconds") != std::string::npos ||
          name.rfind("sched.pool.", 0) == 0 ||
          name == "flow.budget.peak_bytes") {
        continue;
      }
      h = HashCombine(HashCombine(h, HashString(name)), Bits(value));
    }
  }
  return h;
}

// Executors resolve counter handles at construction, so every run resets
// the registry before building its engine.
void ResetObs() {
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();
}

// The per-executor fields of an exec or shard line.
struct ExecFields {
  std::string total, final, series, fp, state;
};

ExecFields FieldsOf(const AdaptiveExecutor& exec,
                    const AdaptiveRunResult& r) {
  ExecFields f;
  f.total = HexFloat(r.run.total_work);
  f.final = Join(r.run.query_final_work, ",", HexFloat);
  f.series = Join(r.run.subplans, ",", [](const SubplanRunStats& st) {
    return Hex(SeriesHash(st));
  });
  f.fp = Hex(HashString(exec.StateFingerprint()));
  for (size_t i = 0; i < r.run.subplans.size(); ++i) {
    if (i > 0) f.state += ",";
    f.state += std::to_string(
        exec.subplan_executor(static_cast<int>(i))->StateBytes());
  }
  return f;
}

std::string QueryRows(const AdaptiveExecutor& exec, int num_queries) {
  std::string out;
  for (QueryId q = 0; q < num_queries; ++q) {
    if (q > 0) out += ",";
    out += Hex(RowsHash(MaterializeResult(*exec.query_output(q), q)));
  }
  return out;
}

// One window of `graph` over a fresh clone of `dataset`: the static
// schedule when `catalog` is null, estimator-driven otherwise; operators
// share state through an arrangement catalog when `arranged`. `kind` is
// the line's kind token.
std::string ExecLine(const char* kind, const std::string& id,
                     const SubplanGraph& graph, const StreamSource& dataset,
                     const PaceConfig& paces, int threads, bool track_budget,
                     bool arranged, const Catalog* catalog,
                     const std::vector<double>& constraints, int max_pace) {
  ResetObs();
  StreamSource src;
  CHECK(dataset.CloneTablesInto(&src).ok());
  flow::MemoryBudget budget;  // track-only: accounts, never limits
  arrange::ArrangementCatalog arrangements;  // must outlive the executor
  ExecOptions opts;
  opts.sched.num_threads = threads;
  if (track_budget) opts.flow.budget = &budget;
  if (arranged) opts.arrange.catalog = &arrangements;
  std::unique_ptr<CostEstimator> est;
  std::unique_ptr<AdaptiveExecutor> exec;
  if (catalog == nullptr) {
    exec = std::make_unique<AdaptiveExecutor>(&graph, &src, opts);
  } else {
    est = std::make_unique<CostEstimator>(&graph, catalog, opts);
    exec = std::make_unique<AdaptiveExecutor>(
        est.get(), &src, constraints, AdaptivePolicy(), opts,
        PaceOptimizerOptions{max_pace, 0});
  }
  Result<AdaptiveRunResult> r = exec->Run(paces);
  CHECK(r.ok()) << id << ": " << r.status().ToString();
  ExecFields f = FieldsOf(*exec, *r);
  return std::string(kind) + " " + id + " total=" + f.total +
         " final=" + f.final +
         " rows=" + QueryRows(*exec, graph.num_queries()) +
         " series=" + f.series + " fp=" + f.fp + " state=" + f.state +
         " counters=" + Hex(CountersHash());
}

// The scheduler property's random shared plans (tests/test_util.h).
constexpr int kRandomPlans = 100;

std::string RandomPlanLine(int seed, int threads, bool track_budget) {
  static const TpchDb db(TpchScale{0.001, 11});
  RandomSharedPlan plan = MakeRandomSharedPlan(db.catalog, seed);
  std::string id = "randplan.s" + std::to_string(seed) + ".t" +
                   std::to_string(threads) +
                   (track_budget ? ".track" : ".nobudget");
  return ExecLine("exec", id, plan.graph, db.source, plan.paces, threads,
                  track_budget, false, nullptr, {}, 0);
}

// The 22-query plan as perfbench's tpch22 optimizes it: iShare at r = 0.2,
// J = 50, sf 0.01, seed 1.
std::string Tpch22Line(bool adaptive, int threads) {
  constexpr int kMaxPace = 50;
  static const OptimizedPlan plan = [] {
    const TpchDb& db = Db(0.01, 1);
    std::vector<QueryPlan> queries = AllTpchQueries(db.catalog);
    ApproachOptions opts;
    opts.max_pace = kMaxPace;
    return OptimizePlan(Approach::kIShare, queries, db.catalog,
                        std::vector<double>(queries.size(), 0.2), opts);
  }();
  const TpchDb& db = Db(0.01, 1);
  std::string id = std::string("tpch22.s1.sf0.01.J50.r0.2.iShare.") +
                   (adaptive ? "adaptive" : "static") + ".t" +
                   std::to_string(threads);
  return ExecLine("exec", id, plan.graph, db.source, plan.paces, threads,
                  false, false, adaptive ? &db.catalog : nullptr,
                  plan.abs_constraints, kMaxPace);
}

enum class ShardFault { kNone, kStall, kCrash };

const char* ShardFaultToken(ShardFault f) {
  switch (f) {
    case ShardFault::kNone:
      return "nofault";
    case ShardFault::kStall:
      return "stall";
    case ShardFault::kCrash:
      return "crash";
  }
  return "?";
}

// shard_test's co-partitioned two-query family. kStall skips shard 1's
// steps in rounds 2 and 3; kCrash crashes shard 1 once the first group
// epoch has committed.
std::string ShardLine(int shards, int threads, ShardFault fault) {
  constexpr int kMaxPace = 8;
  static const TestDb db(60, 10, 6);
  ResetObs();
  shard::ShardOptions so;
  so.num_shards = shards;
  so.plan = CoPartitioned();
  so.exec.sched.num_threads = threads;
  shard::ShardedRuntime rt(&db.catalog, db.source,
                           MakeShardQueries(db.catalog), {1e18, 1e18}, so);
  CHECK(rt.init_status().ok()) << rt.init_status().ToString();
  CHECK(rt.BeginWindow(kMaxPace).ok());
  bool crashed = false;
  while (rt.HasPendingRounds()) {
    CHECK(rt.RunRound().ok());
    if (fault == ShardFault::kStall && rt.round() == 1) {
      CHECK(rt.InjectStall(1, 2).ok());
    }
    if (fault == ShardFault::kCrash && !crashed &&
        rt.checkpoint_manager()->stats().checkpoints >= 1) {
      CHECK(rt.InjectCrash(1).ok());
      crashed = true;
    }
  }
  Result<shard::ShardRunResult> fin = rt.FinishWindow();
  CHECK(fin.ok()) << fin.status().ToString();
  const shard::ShardRunResult& res = *fin;

  std::string rows;
  for (QueryId q = 0; q < rt.num_queries(); ++q) {
    if (q > 0) rows += ",";
    rows += Hex(RowsHash(rt.QueryResult(q).value()));
  }
  std::vector<ExecFields> per_shard;
  std::vector<std::string> base;
  for (int s = 0; s < shards; ++s) {
    per_shard.push_back(
        FieldsOf(*rt.shard_exec(s), res.shards[static_cast<size_t>(s)]));
    const StreamSource& src = rt.shard_source(s);
    base.push_back(Join(src.TableNames(), ",", [&src](const std::string& t) {
      return Hex(LogHash(*src.buffer(t)));
    }));
  }
  auto field = [&per_shard](std::string ExecFields::*m) {
    return Join(per_shard, ";", [m](const ExecFields& f) { return f.*m; });
  };
  const shard::ShardGroupStats& g = res.stats;
  std::vector<int64_t> group = {g.rounds,
                                g.merged_tuples,
                                g.straggler_observations,
                                g.straggler_lag_steps,
                                g.straggler_absorbed,
                                g.straggler_escalations,
                                g.recoveries,
                                g.restored_from_epoch,
                                g.restarts};
  std::vector<int64_t> xchg = {res.exchange.delivered_tuples,
                               res.exchange.delivered_bytes,
                               res.exchange.drained_tuples};
  auto ints = [](int64_t v) { return std::to_string(v); };
  return "shard copart.n" + std::to_string(shards) + ".t" +
         std::to_string(threads) + "." + ShardFaultToken(fault) +
         " rows=" + rows + " total=" + field(&ExecFields::total) +
         " final=" + field(&ExecFields::final) +
         " series=" + field(&ExecFields::series) +
         " fp=" + field(&ExecFields::fp) +
         " state=" + field(&ExecFields::state) +
         " base=" + Join(base, ";", [](const std::string& b) { return b; }) +
         " xchg=" + Join(xchg, ",", ints) + " group=" + Join(group, ",", ints) +
         " counters=" + Hex(CountersHash());
}

// ---- chaos and arrange lines -------------------------------------------

uint64_t ScheduleHash(const chaos::FaultSchedule& sched) {
  uint64_t h = HashCombine(sched.seed, sched.source_plan.seed);
  for (const FaultEvent& e : sched.source_plan.events) {
    h = HashCombine(h, static_cast<uint64_t>(e.kind));
    for (double d : {e.at, e.duration, e.magnitude}) h = HashCombine(h, Bits(d));
    h = HashCombine(h, HashString(e.table));
  }
  for (const chaos::ChaosEvent& e : sched.events) {
    h = HashCombine(h, static_cast<uint64_t>(e.layer));
    h = HashCombine(h, static_cast<uint64_t>(e.step));
    h = HashCombine(h, static_cast<uint64_t>(e.count));
    h = HashCombine(h, Bits(e.magnitude));
  }
  return h;
}

enum class ChaosWindow { kSweep, kLong };

// FaultSchedule::Random over MakeSharedDag's tables, as chaos_test's
// sweep draws it; the long window spreads the events over 32 steps.
chaos::FaultSchedule ChaosSchedule(ChaosWindow window, uint64_t seed) {
  chaos::ChaosScheduleOptions sopts;
  sopts.max_step = window == ChaosWindow::kSweep ? 4 : 32;
  return chaos::FaultSchedule::Random(seed, sopts, {"orders", "customer"});
}

std::string ChaosLine(ChaosWindow window, uint64_t seed) {
  static const TestDb db;
  static const SubplanGraph graph =
      SubplanGraph::Build(MakeSharedDag(db.catalog));
  const PaceConfig paces = window == ChaosWindow::kSweep
                               ? PaceConfig{2, 2, 4}
                               : PaceConfig{16, 16, 32};
  chaos::FaultSchedule sched = ChaosSchedule(window, seed);
  ResetObs();
  CostEstimator est(&graph, &db.catalog);
  std::vector<double> abs = TightLooseConstraints(&est, paces);
  Result<ChaosReport> rep =
      RunChaos(&est, paces, abs, db.source, sched, ChaosOptions{});
  CHECK(rep.ok()) << seed << ": " << rep.status().ToString();
  const ChaosReport& r = *rep;

  auto ints = [](int64_t v) { return std::to_string(v); };
  const chaos::SupervisorStats& sv = r.supervisor;
  std::vector<int64_t> sup = {sv.checkpoint_failures,
                              sv.checkpoints_skipped_open,
                              sv.checkpoints_stretched,
                              sv.catchup_deferred,
                              sv.defer_signals,
                              sv.drop_signals,
                              sv.stall_observations,
                              sv.pressure_observations,
                              sv.safe_stops};
  std::string ladder = Join(r.ladder, ";", [](const chaos::LadderTransition& t) {
    return std::to_string(t.step) + ":" +
           std::to_string(static_cast<int>(t.from)) + ">" +
           std::to_string(static_cast<int>(t.to)) + ":" +
           Hex(HashString(t.cause));
  });
  std::string breakers =
      Join(r.breakers, ";", [](const chaos::BreakerTransition& t) {
        return std::to_string(t.step) + ":" + t.breaker + ":" +
               std::to_string(static_cast<int>(t.from)) + ">" +
               std::to_string(static_cast<int>(t.to)) + ":" +
               Hex(HashString(t.cause));
      });
  const recovery::RecoveryStats& rs = r.recovery;
  std::string recovery =
      Join(std::vector<int64_t>{rs.checkpoints, rs.checkpoint_bytes,
                                rs.torn_discarded, rs.restores,
                                rs.budget_skipped, rs.store_retry_attempts},
           ",", ints) +
      "," + HexFloat(rs.store_retry_backoff_seconds) + "," +
      ints(rs.consecutive_failures) + "," + ints(rs.last_commit_epoch);
  const flow::FlowStats& fs = r.flow;
  std::string flow =
      Join(std::vector<int64_t>{fs.admitted_tuples, fs.dropped_tuples,
                                fs.shed_deferred, fs.backpressure_events,
                                fs.trims, fs.trimmed_tuples},
           ",", ints) +
      ";" + Join(fs.query_deferred, ",", ints) + ";" +
      Join(fs.query_dropped, ",", ints);
  std::string gates = Join(
      std::vector<int64_t>{r.completed, r.results_match_baseline,
                           r.zero_slack_never_shed, r.breakers_attributed},
      ",", ints);
  return std::string("chaos ") +
         (window == ChaosWindow::kSweep ? "sweep" : "long") + ".s" +
         std::to_string(seed) + " sched=" + Hex(ScheduleHash(sched)) +
         " gates=" + gates +
         " level=" + ints(static_cast<int>(r.final_level)) +
         " sup=" + Join(sup, ",", ints) + " ladder=" + ladder +
         " breakers=" + breakers + " recovery=" + recovery + " flow=" + flow +
         " budget=" + ints(r.budget_bytes) + " peak=" + ints(r.peak_baseline) +
         " counters=" + Hex(CountersHash());
}

// A schedule alone, drawn with churn and shard events: pins every
// generator field the run lines leave at zero draws.
std::string ChaosScheduleLine(uint64_t seed) {
  chaos::ChaosScheduleOptions sopts;
  sopts.churn_events = 3;
  sopts.shard_events = 4;
  sopts.num_shards_hint = 3;
  chaos::FaultSchedule sched =
      chaos::FaultSchedule::Random(seed, sopts, {"orders", "customer"});
  return "chaos sched.s" + std::to_string(seed) +
         " sched=" + Hex(ScheduleHash(sched));
}

// arrange_test's random workloads (tests/test_util.h), over the
// insert-only TestDb (kind "arrange") or the retracting one ("retract").
constexpr int kArrangeWorkloads = 100;

std::string ArrangeLine(bool retractions, int seed, bool arranged,
                        bool track_budget) {
  static const TestDb insert_only(200, 12, 7);
  static const TestDb retracting(200, 12, 7, /*retractions=*/true);
  const TestDb& db = retractions ? retracting : insert_only;
  const char* kind = retractions ? "retract" : "arrange";
  ArrangeWorkload w = MakeArrangeWorkload(db.catalog, seed);
  std::string id = std::string(kind) + ".s" + std::to_string(seed) + ".t" +
                   std::to_string(w.threads) +
                   (arranged ? ".catalog" : ".none") +
                   (track_budget ? ".track" : ".nobudget");
  return ExecLine(kind, id, w.graph, db.source, w.paces, w.threads,
                  track_budget, arranged, nullptr, {}, 0);
}

// ---- the corpus and the check ------------------------------------------

// The fields a plan is judged by: everything after the approach token up
// to, not including, the memo miss count.
std::string PlanFields(const std::string& line) {
  size_t begin = line.find(" paces=");
  size_t end = line.rfind(" misses=");
  return line.substr(begin, end - begin);
}

// A line as the build compares it: counters compile out with the obs
// layer, so such a build compares everything else.
std::string Comparable(const std::string& line) {
  if (ISHARE_OBS_ENABLED) return line;
  size_t at = line.find(" counters=");
  if (at == std::string::npos) return line;
  size_t end = line.find(' ', at + 1);
  return line.substr(0, at) + (end == std::string::npos ? "" : line.substr(end));
}

struct Entry {
  std::string kind;
  std::function<std::string()> line;
  // opt lines: the configuration id without ".nomemo", plus the approach.
  std::string memo_key;
};

std::vector<Entry> Entries() {
  std::vector<Entry> out;
  for (const DigestConfig& c : Corpus()) {
    out.push_back({"opt", [c] { return DigestLine(c); },
                   c.id.substr(0, c.id.find(".nomemo")) + " " +
                       ApproachToken(c.approach)});
  }
  for (int seed = 1; seed <= kRandomPlans; ++seed) {
    for (int threads : {1, 4}) {
      for (bool budget : {false, true}) {
        out.push_back({"exec",
                       [=] { return RandomPlanLine(seed, threads, budget); },
                       ""});
      }
    }
  }
  for (bool adaptive : {false, true}) {
    for (int threads : {1, 4}) {
      out.push_back(
          {"exec", [=] { return Tpch22Line(adaptive, threads); }, ""});
    }
  }
  for (int shards : {2, 3}) {
    for (int threads : {1, 4}) {
      for (ShardFault fault :
           {ShardFault::kNone, ShardFault::kStall, ShardFault::kCrash}) {
        out.push_back(
            {"shard", [=] { return ShardLine(shards, threads, fault); }, ""});
      }
    }
  }
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    out.push_back(
        {"chaos", [=] { return ChaosLine(ChaosWindow::kSweep, seed); }, ""});
  }
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    out.push_back(
        {"chaos", [=] { return ChaosLine(ChaosWindow::kLong, seed); }, ""});
  }
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    out.push_back({"chaos", [=] { return ChaosScheduleLine(seed); }, ""});
  }
  for (bool retractions : {false, true}) {
    for (int seed = 1; seed <= kArrangeWorkloads; ++seed) {
      for (bool arranged : {true, false}) {
        for (bool budget : {false, true}) {
          out.push_back({retractions ? "retract" : "arrange",
                         [=] {
                           return ArrangeLine(retractions, seed, arranged,
                                              budget);
                         },
                         ""});
        }
      }
    }
  }
  return out;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--golden=<file>] [--stride=<k >= 1>] "
               "[--kind=<opt|exec|shard|chaos|arrange|retract>[,...]]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string golden_path;
  int stride = 1;
  std::set<std::string> kinds;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--golden=", 9) == 0 && a[9] != '\0') {
      golden_path = a + 9;
    } else if (std::strncmp(a, "--stride=", 9) == 0 &&
               ParseInt(a + 9, &stride) && stride >= 1) {
    } else if (std::strncmp(a, "--kind=", 7) == 0 && a[7] != '\0') {
      std::string list = a + 7;
      for (size_t b = 0; b <= list.size();) {
        size_t e = std::min(list.find(',', b), list.size());
        std::string k = list.substr(b, e - b);
        if (k != "opt" && k != "exec" && k != "shard" && k != "chaos" &&
            k != "arrange" && k != "retract") {
          return Usage(argv[0]);
        }
        kinds.insert(k);
        b = e + 1;
      }
    } else {
      return Usage(argv[0]);
    }
  }

  std::vector<std::string> golden;
  if (!golden_path.empty()) {
    std::ifstream in(golden_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", golden_path.c_str());
      return 1;
    }
    for (std::string l; std::getline(in, l);) golden.push_back(l);
  }

  std::vector<Entry> corpus = Entries();
  if (!golden_path.empty() && golden.size() != corpus.size()) {
    std::fprintf(stderr, "%s has %zu lines, the corpus %zu\n",
                 golden_path.c_str(), golden.size(), corpus.size());
    return 1;
  }
  // Corpus indices of the selected kinds; the stride counts within them.
  std::vector<size_t> selected;
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (kinds.empty() || kinds.count(corpus[i].kind) != 0) {
      selected.push_back(i);
    }
  }
  // Plan fields by configuration id (without ".nomemo") and approach.
  std::map<std::string, std::string> memo_plans;
  size_t checked = 0;
  for (size_t k = 0; k < selected.size(); k += static_cast<size_t>(stride)) {
    const size_t i = selected[k];
    const Entry& e = corpus[i];
    std::string line = e.line();
    ++checked;
    if (golden_path.empty()) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    } else if (Comparable(line) != Comparable(golden[i])) {
      std::fprintf(stderr, "line %zu differs\n  golden: %s\n  got:    %s\n",
                   i + 1, golden[i].c_str(), line.c_str());
      return 1;
    }
    if (e.memo_key.empty()) continue;
    auto [it, fresh] = memo_plans.emplace(e.memo_key, PlanFields(line));
    if (!fresh && it->second != PlanFields(line)) {
      std::fprintf(stderr, "%s: the w/o-memo plan differs from the memo's\n",
                   e.memo_key.c_str());
      return 1;
    }
  }
  if (!golden_path.empty()) {
    std::printf("digest: %zu of %zu lines match %s\n", checked,
                corpus.size(), golden_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
