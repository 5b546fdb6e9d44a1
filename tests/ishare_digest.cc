// Equivalence digest of the optimizer: one line per optimizer run over a
// fixed corpus, pinned in tests/golden/digest.txt. A change that claims
// bit-exact plans moves no line; a change that means to move paces or
// plans re-pins the file and says which lines moved.
//
// Line format (space-separated; the first field is the line kind, so
// execution lines can be added later under a kind of their own):
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
// Usage:
//   ishare_digest                       print every line
//   ishare_digest --golden=<file>       check every line against <file>
//   ishare_digest --golden=<file> --stride=<k>
//                                       check every k-th line only
// A check prints the first line that differs and exits 1. The corpus
// also asserts that the w/o-memo run's plan equals the memoized run's.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ishare/common/hash.h"
#include "ishare/common/parse.h"
#include "ishare/common/rng.h"
#include "ishare/opt/approaches.h"
#include "ishare/workload/tpch.h"
#include "ishare/workload/tpch_queries.h"

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

// The fields a plan is judged by: everything after the approach token up
// to, not including, the memo miss count.
std::string PlanFields(const std::string& line) {
  size_t begin = line.find(" paces=");
  size_t end = line.rfind(" misses=");
  return line.substr(begin, end - begin);
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--golden=<file>] [--stride=<k >= 1>]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string golden_path;
  int stride = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--golden=", 9) == 0 && a[9] != '\0') {
      golden_path = a + 9;
    } else if (std::strncmp(a, "--stride=", 9) == 0 &&
               ParseInt(a + 9, &stride) && stride >= 1) {
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

  std::vector<DigestConfig> corpus = Corpus();
  if (!golden_path.empty() && golden.size() != corpus.size()) {
    std::fprintf(stderr, "%s has %zu lines, the corpus %zu\n",
                 golden_path.c_str(), golden.size(), corpus.size());
    return 1;
  }
  // Plan fields by configuration id (without ".nomemo") and approach.
  std::map<std::string, std::string> memo_plans;
  for (size_t i = 0; i < corpus.size(); i += static_cast<size_t>(stride)) {
    const DigestConfig& c = corpus[i];
    std::string line = DigestLine(c);
    if (golden_path.empty()) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    } else if (line != golden[i]) {
      std::fprintf(stderr, "line %zu differs\n  golden: %s\n  got:    %s\n",
                   i + 1, golden[i].c_str(), line.c_str());
      return 1;
    }
    std::string key = c.id.substr(0, c.id.find(".nomemo")) + " " +
                      ApproachToken(c.approach);
    auto [it, fresh] = memo_plans.emplace(key, PlanFields(line));
    if (!fresh && it->second != PlanFields(line)) {
      std::fprintf(stderr, "%s: the w/o-memo plan differs from the memo's\n",
                   c.id.c_str());
      return 1;
    }
  }
  if (!golden_path.empty()) {
    std::printf("digest: %zu of %zu lines match %s\n",
                (corpus.size() + static_cast<size_t>(stride) - 1) /
                    static_cast<size_t>(stride),
                corpus.size(), golden_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace ishare

int main(int argc, char** argv) { return ishare::Main(argc, argv); }
