// Shared-arrangement bench (DESIGN.md §15): three gates over a shared
// query population whose joins and aggregates are arrangement-eligible,
// exiting non-zero unless all hold.
//
//   1. Bit-exactness: at every population size and {1,4} executor
//      threads, the arranged run's state fingerprint and per-query
//      results must equal the fully private run's — arrangements are a
//      pure state-sharing optimization, invisible in the answers.
//   2. Memory per query: at 32+ shared queries the arranged run must cut
//      the flow.state_bytes_per_query gauge (operator "state:" plus
//      shared "arr:" budget components, per query) by >= 30% against the
//      private baseline — the paper's resource-efficiency headline
//      applied to operator state.
//   3. Compaction: slackness-aware folding must keep every arrangement's
//      longest version chain bounded by the lazy threshold at the end of
//      the window; an unbounded chain means the compactor never ran or
//      never caught up.

#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "ishare/arrange/arrangement.h"
#include "ishare/common/check.h"
#include "ishare/common/rng.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"

namespace ishare {
namespace {

const char* PassFail(bool b) { return b ? "PASS" : "FAIL"; }

// Synthetic sales stream sized for the bench (same shape as the shard
// bench's SalesDb; kept local so the binaries stay self-contained).
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

// The population: every query is arrangement-eligible (bare scans feeding
// the stateful operator), alternating between a grouped aggregate and a
// join so both arrangement kinds carry load. No MQO merge — each query is
// its own subplan, so ALL cross-query sharing flows through the catalog,
// which is exactly what the memory gate measures.
std::vector<QueryPlan> ArrangeQueries(const Catalog& catalog, int nq) {
  std::vector<QueryPlan> plans;
  for (QueryId q = 0; q < nq; ++q) {
    PlanBuilder b(&catalog, q);
    PlanNodePtr root;
    if (q % 2 == 0) {
      root = b.Aggregate(b.Scan("orders"), {"o_custkey"},
                         {SumAgg(Col("o_amount"), "total"), CountAgg("n")});
    } else {
      root = b.Join(b.Scan("orders"), b.Scan("customer"), {"o_custkey"},
                    {"c_custkey"});
    }
    plans.push_back({q, "arr_q" + std::to_string(q), root});
  }
  return plans;
}

using ResultMap = std::unordered_map<Row, int64_t, RowHasher>;

struct RunOutput {
  std::string fingerprint;
  std::vector<ResultMap> results;
  double state_bytes_per_query = 0;
  int64_t max_chain = 0;
  int64_t arrangements = 0;
  double wall_seconds = 0;
};

RunOutput RunPopulation(SalesDb* db, const SubplanGraph& g,
                        const PaceConfig& paces, bool arranged, int threads,
                        int64_t chain_threshold) {
  obs::Registry().Reset();
  obs::GlobalTracer().Reset();
  StreamSource src;
  CHECK(db->source.CloneTablesInto(&src).ok());
  arrange::ArrangementCatalog cat;  // must outlive the executor
  flow::MemoryBudget budget(int64_t{1} << 40);
  ExecOptions opts;
  opts.flow.budget = &budget;
  opts.sched.num_threads = threads;
  if (arranged) {
    opts.arrange.catalog = &cat;
    opts.arrange.chain_compact_threshold = chain_threshold;
  }
  AdaptiveExecutor exec(&g, &src, opts);
  auto t0 = std::chrono::steady_clock::now();
  Result<AdaptiveRunResult> r = exec.Run(paces);
  auto t1 = std::chrono::steady_clock::now();
  CHECK(r.ok()) << r.status().ToString();
  RunOutput out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.fingerprint = exec.StateFingerprint();
  for (QueryId q = 0; q < g.num_queries(); ++q) {
    out.results.push_back(MaterializeResult(*exec.query_output(q), q));
  }
  out.state_bytes_per_query =
      obs::Registry().Snapshot().gauges["flow.state_bytes_per_query"];
  out.arrangements = cat.num_arrangements();
  for (const std::string& sig : cat.Signatures()) {
    arrange::Arrangement* a = cat.Find(sig);
    if (a != nullptr) out.max_chain = std::max(out.max_chain,
                                               a->MaxChainLength());
  }
  return out;
}

bool SameResults(const std::vector<ResultMap>& a,
                 const std::vector<ResultMap>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (!(a[q] == b[q])) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::Parse(argc, argv);
  obs::SetEnabled(true);
  PrintHeader("Shared arrangements — bit-exactness, memory and compaction "
              "gates",
              cfg);

  const int n_orders = cfg.quick ? 400 : 2000;
  const int n_customers = cfg.quick ? 24 : 64;
  const int64_t chain_threshold = 64;
  SalesDb db(n_orders, n_customers, cfg.seed);

  std::vector<int> populations = {8, 32};
  if (!cfg.quick) populations.push_back(128);

  bool exact_ok = true;
  bool memory_ok = true;
  bool chain_ok = true;
  std::printf("\n== arranged vs private, by population ==\n");
  TextTable t({"queries", "threads", "priv_B/q", "arr_B/q", "reduction",
               "max_chain", "arrs", "wall_s", "gates"});
  for (int nq : populations) {
    std::vector<QueryPlan> plans = ArrangeQueries(db.catalog, nq);
    SubplanGraph g = SubplanGraph::Build(plans);
    PaceConfig paces(g.num_subplans());
    // Distinct paces stagger the readers so compaction has real slack
    // structure to exploit (uniform paces would fold trivially).
    for (int i = 0; i < g.num_subplans(); ++i) paces[i] = 1 + (i % 4);
    for (int threads : {1, 4}) {
      RunOutput priv = RunPopulation(&db, g, paces, /*arranged=*/false,
                                     threads, chain_threshold);
      RunOutput arr = RunPopulation(&db, g, paces, /*arranged=*/true,
                                    threads, chain_threshold);
      bool exact = arr.fingerprint == priv.fingerprint &&
                   SameResults(arr.results, priv.results);
      exact_ok = exact_ok && exact;
      CHECK_GT(arr.arrangements, 0);  // the comparison must not be vacuous
      bool bounded = arr.max_chain <= chain_threshold;
      chain_ok = chain_ok && bounded;
      double reduction =
          priv.state_bytes_per_query > 0
              ? 1.0 - arr.state_bytes_per_query / priv.state_bytes_per_query
              : 0.0;
      bool mem = nq < 32 || reduction >= 0.30;
      memory_ok = memory_ok && mem;
      t.AddRow({std::to_string(nq), std::to_string(threads),
                TextTable::Num(priv.state_bytes_per_query, 0),
                TextTable::Num(arr.state_bytes_per_query, 0),
                TextTable::Num(reduction * 100.0, 1) + "%",
                std::to_string(arr.max_chain),
                std::to_string(arr.arrangements),
                TextTable::Num(arr.wall_seconds, 4),
                (exact && bounded && mem) ? "PASS"
                : !exact                  ? "FAIL(exact)"
                : !bounded                ? "FAIL(chain)"
                                          : "FAIL(memory)"});
    }
  }
  t.Print();

  std::printf("\n== gates ==\n");
  TextTable gates({"gate", "verdict"});
  gates.AddRow({"bit-exact across populations and threads",
                PassFail(exact_ok)});
  gates.AddRow({">=30% state bytes/query reduction at 32+ queries",
                PassFail(memory_ok)});
  gates.AddRow({"chains bounded by compaction threshold",
                PassFail(chain_ok)});
  gates.Print();
  bool all = exact_ok && memory_ok && chain_ok;
  std::printf("overall: %s\n", PassFail(all));

  int json_rc = FinishBench(cfg, "bench_arrange", {});
  return (all && json_rc == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
