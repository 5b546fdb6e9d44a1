// A small command-line driver over the public API: pick TPC-H queries and
// per-query constraints, choose an approach, and get the optimized plan
// (EXPLAIN or DOT) plus the executed run's metrics. Handy for poking at the
// optimizer without writing code.
//
// Usage:
//   ishare_cli [--sf=0.01] [--seed=7] [--max_pace=50]
//              [--queries=5,7,15] [--constraints=1.0,0.5,0.1]
//              [--approach=ishare|ishare-nounshare|ishare-bruteforce|
//                          noshare-uniform|noshare-nonuniform|share-uniform]
//              [--explain] [--dot] [--run]
//
// Examples:
//   ishare_cli --queries=15,7 --constraints=1.0,0.1 --explain --run
//   ishare_cli --queries=5,8 --approach=share-uniform --dot
//
// A malformed or out-of-range value (sf <= 0, max_pace < 1, a seed that is
// not all digits, a constraint that is not a finite number > 0), an
// unknown approach or an unknown flag prints a usage line and exits 2
// before any data is generated.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ishare/common/parse.h"
#include "ishare/harness/experiment.h"
#include "ishare/harness/report.h"
#include "ishare/plan/explain.h"
#include "ishare/workload/tpch_queries.h"

using namespace ishare;

namespace {

std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool ParseApproach(const std::string& s, Approach* out) {
  if (s == "ishare") {
    *out = Approach::kIShare;
  } else if (s == "ishare-nounshare") {
    *out = Approach::kIShareNoUnshare;
  } else if (s == "ishare-bruteforce") {
    *out = Approach::kIShareBruteForce;
  } else if (s == "noshare-uniform") {
    *out = Approach::kNoShareUniform;
  } else if (s == "noshare-nonuniform") {
    *out = Approach::kNoShareNonuniform;
  } else if (s == "share-uniform") {
    *out = Approach::kShareUniform;
  } else {
    return false;
  }
  return true;
}

[[noreturn]] void Usage(const char* prog, const char* bad) {
  std::fprintf(stderr,
               "bad flag %s\nusage: %s [--sf=<double > 0>] [--seed=<digits>] "
               "[--max_pace=<int >= 1>] [--queries=<list>] "
               "[--constraints=<list of doubles > 0>] [--approach=<name>] "
               "[--explain] [--dot] [--run]\n",
               bad, prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.01;
  uint64_t seed = 7;
  int max_pace = 50;
  std::string queries_arg = "5,7,15";
  std::vector<double> constraints;
  Approach approach = Approach::kIShare;
  bool explain = false, dot = false, run = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    bool ok = true;
    if (std::strncmp(a, "--sf=", 5) == 0) {
      ok = ParseDouble(a + 5, &sf) && sf > 0;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      ok = ParseSeed(a + 7, &seed);
    } else if (std::strncmp(a, "--max_pace=", 11) == 0) {
      ok = ParseInt(a + 11, &max_pace) && max_pace >= 1;
    } else if (std::strncmp(a, "--queries=", 10) == 0) {
      queries_arg = a + 10;
    } else if (std::strncmp(a, "--constraints=", 14) == 0) {
      constraints.clear();
      for (const std::string& tok : SplitCsv(a + 14)) {
        double c = 0;
        ok = ok && ParseDouble(tok.c_str(), &c) && c > 0;
        constraints.push_back(c);
      }
    } else if (std::strncmp(a, "--approach=", 11) == 0) {
      ok = ParseApproach(a + 11, &approach);
    } else if (std::strcmp(a, "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(a, "--dot") == 0) {
      dot = true;
    } else if (std::strcmp(a, "--run") == 0) {
      run = true;
    } else if (std::strcmp(a, "--help") == 0) {
      std::printf("see the header of examples/ishare_cli.cpp\n");
      return 0;
    } else {
      ok = false;
    }
    if (!ok) Usage(argv[0], a);
  }
  if (!explain && !dot && !run) explain = run = true;

  std::fprintf(stderr, "generating TPC-H sf=%.4f...\n", sf);
  TpchDb db(TpchScale{sf, seed});

  std::vector<QueryPlan> queries;
  QueryId id = 0;
  for (const std::string& tok : SplitCsv(queries_arg)) {
    if (tok == "QA" || tok == "qa") {
      queries.push_back(PaperQueryA(db.catalog, id++));
      continue;
    }
    if (tok == "QB" || tok == "qb") {
      queries.push_back(PaperQueryB(db.catalog, id++));
      continue;
    }
    bool variant = tok.back() == 'v';
    int qnum = std::atoi(tok.c_str());
    if (qnum < 1 || qnum > 22) {
      std::fprintf(stderr, "bad query '%s' (1..22, optional 'v', QA, QB)\n",
                   tok.c_str());
      return 1;
    }
    queries.push_back(TpchQuery(db.catalog, qnum, id++, variant));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries\n");
    return 1;
  }

  std::vector<double> rel(queries.size(), 1.0);
  if (!constraints.empty()) {
    if (constraints.size() != queries.size()) {
      std::fprintf(stderr, "need %zu constraints, got %zu\n", queries.size(),
                   constraints.size());
      return 1;
    }
    rel = constraints;
  }

  ApproachOptions opts;
  opts.max_pace = max_pace;
  std::fprintf(stderr, "optimizing with %s...\n", ApproachName(approach));
  OptimizedPlan plan = OptimizePlan(approach, queries, db.catalog, rel, opts);
  std::printf("# %s, %d subplans, est total work %.0f, optimized in %.2fs\n",
              ApproachName(approach), plan.graph.num_subplans(),
              plan.est_cost.total_work, plan.optimization_seconds);

  if (explain) {
    std::printf("\n%s", ExplainSummary(plan.graph, plan.paces).c_str());
  }
  if (dot) {
    std::printf("\n%s", ToDot(plan.graph, plan.paces).c_str());
  }
  if (run) {
    std::fprintf(stderr, "executing the trigger window...\n");
    Experiment ex(&db.catalog, &db.source, queries, rel, opts);
    ExperimentResult r = ex.Run(approach);
    std::printf("\ntotal: %.3fs, %.0f work units\n", r.total_seconds,
                r.total_work);
    TextTable t({"query", "final_work", "goal", "missed_%"});
    for (const QueryMetrics& m : r.queries) {
      t.AddRow({m.name, TextTable::Num(m.final_work, 0),
                TextTable::Num(m.final_work_goal, 0),
                TextTable::Num(100.0 * m.missed_rel, 1)});
    }
    t.Print();
  }
  return 0;
}
