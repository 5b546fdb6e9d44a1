#ifndef ISHARE_BENCH_BENCH_UTIL_H_
#define ISHARE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ishare/common/parse.h"
#include "ishare/harness/experiment.h"
#include "ishare/harness/json_export.h"
#include "ishare/harness/report.h"
#include "ishare/workload/tpch_queries.h"

namespace ishare {

// Command-line knobs shared by every bench binary:
//   --sf=<double>        TPC-H scale factor, > 0 (default 0.01)
//   --max_pace=<int>     J, the pace cap, >= 1 (default 50; paper uses 100)
//   --seed=<digits>      data generator seed
//   --threads=<int>      scheduler worker threads, >= 1 (default 1 =
//                        serial; any value keeps results byte-identical)
//   --quick              shrink everything for a fast smoke run
//   --json=<path>        also write the structured export (json_export.h)
// A malformed or out-of-range value, or an unknown flag, prints the usage
// line and exits 2 before any work starts: numbers from a misread
// configuration are worse than none.
struct BenchConfig {
  double sf = 0.01;
  int max_pace = 50;
  uint64_t seed = 7;
  int threads = 1;
  bool quick = false;
  std::string json_path;

  static BenchConfig Parse(int argc, char** argv) {
    BenchConfig c;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      bool ok = true;
      if (std::strncmp(a, "--sf=", 5) == 0) {
        ok = ParseDouble(a + 5, &c.sf) && c.sf > 0;
      } else if (std::strncmp(a, "--max_pace=", 11) == 0) {
        ok = ParseInt(a + 11, &c.max_pace) && c.max_pace >= 1;
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        ok = ParseSeed(a + 7, &c.seed);
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        ok = ParseInt(a + 10, &c.threads) && c.threads >= 1;
      } else if (std::strcmp(a, "--quick") == 0) {
        c.quick = true;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        c.json_path = a + 7;
        ok = !c.json_path.empty();
      } else {
        ok = false;
      }
      if (!ok) {
        std::fprintf(stderr,
                     "bad flag %s\nusage: %s [--sf=<double > 0>] "
                     "[--max_pace=<int >= 1>] [--seed=<digits>] "
                     "[--threads=<int >= 1>] [--quick] [--json=<path>]\n",
                     a, argv[0]);
        std::exit(2);
      }
    }
    if (c.quick) {
      c.sf = std::min(c.sf, 0.004);
      c.max_pace = std::min(c.max_pace, 16);
    }
    return c;
  }

  ApproachOptions MakeOptions() const {
    ApproachOptions o;
    o.max_pace = max_pace;
    o.exec.sched.num_threads = threads;
    return o;
  }
};

inline const std::vector<Approach>& StandardApproaches() {
  static const std::vector<Approach> kApproaches = {
      Approach::kNoShareUniform, Approach::kNoShareNonuniform,
      Approach::kShareUniform, Approach::kIShare};
  return kApproaches;
}

inline void PrintHeader(const char* what, const BenchConfig& c) {
  std::printf("# %s\n", what);
  std::printf("# sf=%.4f max_pace=%d seed=%llu threads=%d%s\n", c.sf,
              c.max_pace, static_cast<unsigned long long>(c.seed), c.threads,
              c.quick ? " (quick)" : "");
}

// The paper's Table 1/2/3 block: missed latencies per approach.
inline void PrintMissedLatencyTable(
    const std::string& title, const std::vector<ExperimentResult>& results) {
  std::printf("\n== %s ==\n", title.c_str());
  TextTable t({"approach", "Mean %", "Mean Sec.", "Max %", "Max Sec."});
  for (const ExperimentResult& r : results) {
    t.AddRow({ApproachName(r.approach), TextTable::Num(r.MeanMissedRel(), 2),
              TextTable::Num(r.MeanMissedAbs(), 4),
              TextTable::Num(r.MaxMissedRel(), 2),
              TextTable::Num(r.MaxMissedAbs(), 4)});
  }
  t.Print();
}

// Shared driver for Fig. 11 / Fig. 12 / Fig. 14-style sweeps: runs every
// approach at each uniform relative constraint and prints one row per
// (constraint, approach). Returns all results for missed-latency tables.
inline std::vector<ExperimentResult> RunUniformSweep(
    TpchDb* db, const std::vector<QueryPlan>& queries,
    const std::vector<Approach>& approaches, const BenchConfig& cfg,
    const std::string& title) {
  const std::vector<double> kLevels =
      cfg.quick ? std::vector<double>{1.0, 0.2}
                : std::vector<double>{1.0, 0.5, 0.2, 0.1};
  std::vector<ExperimentResult> all;
  std::printf("\n== %s ==\n", title.c_str());
  TextTable t({"rel_constraint", "approach", "total_exec_s", "total_work",
               "opt_s"});
  for (double level : kLevels) {
    std::vector<double> rel(queries.size(), level);
    Experiment ex(&db->catalog, &db->source, queries, rel,
                  cfg.MakeOptions());
    for (Approach a : approaches) {
      ExperimentResult r = ex.Run(a);
      t.AddRow({TextTable::Num(level, 1), ApproachName(a),
                TextTable::Num(r.total_seconds, 3),
                TextTable::Num(r.total_work, 0),
                TextTable::Num(r.optimization_seconds, 3)});
      all.push_back(std::move(r));
    }
  }
  t.Print();
  return all;
}

// Standard bench epilogue: writes the structured JSON export when the
// bench was invoked with --json=<path>. `results` are every experiment
// run the bench performed, in run order; the export also snapshots the
// global metrics registry and span aggregates accumulated over the whole
// process. Returns the bench's exit code (non-zero when the export was
// requested but could not be written).
inline int FinishBench(const BenchConfig& cfg, const std::string& bench_name,
                       const std::vector<ExperimentResult>& results) {
  if (cfg.json_path.empty()) return 0;
  BenchRunInfo info;
  info.bench = bench_name;
  info.sf = cfg.sf;
  info.max_pace = cfg.max_pace;
  info.seed = cfg.seed;
  info.threads = cfg.threads;
  info.quick = cfg.quick;
  std::string doc = BenchReportJson(info, results);
  if (doc.empty()) {
    std::fprintf(stderr, "json export failed: malformed document\n");
    return 1;
  }
  Status st = WriteBenchJson(cfg.json_path, doc);
  if (!st.ok()) {
    std::fprintf(stderr, "json export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("# json export written to %s\n", cfg.json_path.c_str());
  return 0;
}

// Median of `xs`: the mean of the two middle values when the count is even.
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Wall-clock overhead of one code path over another on a shared host:
// back-to-back pairs of one run per side, alternating which side runs
// first, so drift within a pair lands on both sides alike. A host that
// slows down for a while then moves both halves of a pair, not one
// side's samples. The gate reads the median of the per-pair ratios; the
// median per-pair difference gives it an absolute floor against timer
// noise on short runs.
struct PairedOverhead {
  std::vector<double> base_seconds, measured_seconds;
  double ratio = 1.0;         // median per-pair measured / base
  double diff_seconds = 0.0;  // median per-pair measured - base

  // True when the median ratio is at most `max_ratio`, or the median
  // per-pair difference is at most `floor_seconds`.
  bool Within(double max_ratio, double floor_seconds) const {
    return ratio <= max_ratio || diff_seconds <= floor_seconds;
  }
};

// Times `pairs` pairs (even, so each side runs first in half of them; the
// measured side first in even-numbered pairs). Each callable runs its side
// once and returns the seconds it took.
template <typename BaseFn, typename MeasuredFn>
PairedOverhead TimePairs(int pairs, BaseFn&& base, MeasuredFn&& measured) {
  PairedOverhead out;
  std::vector<double> ratios, diffs;
  for (int p = 0; p < pairs; ++p) {
    double b = 0, m = 0;
    if (p % 2 == 0) {
      m = measured();
      b = base();
    } else {
      b = base();
      m = measured();
    }
    out.base_seconds.push_back(b);
    out.measured_seconds.push_back(m);
    ratios.push_back(b > 0 ? m / b : 1.0);
    diffs.push_back(m - b);
  }
  out.ratio = Median(ratios);
  out.diff_seconds = Median(diffs);
  return out;
}

// Merges per-approach results (across constraint levels) for Table 1-style
// missed-latency aggregation.
inline std::vector<ExperimentResult> MergeByApproach(
    const std::vector<ExperimentResult>& results,
    const std::vector<Approach>& approaches) {
  std::vector<ExperimentResult> merged;
  for (Approach a : approaches) {
    ExperimentResult m;
    m.approach = a;
    for (const ExperimentResult& r : results) {
      if (r.approach != a) continue;
      m.queries.insert(m.queries.end(), r.queries.begin(), r.queries.end());
    }
    merged.push_back(std::move(m));
  }
  return merged;
}

}  // namespace ishare

#endif  // ISHARE_BENCH_BENCH_UTIL_H_
