// End-to-end benchmark of the iShare engine.
//
//   ishare_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--guard-out <path>]
//
// Runs one workload as a closed loop (the next trigger window starts when
// the previous one completes), checks its outputs against references that
// do not go through the timed code path, and prints as the last line of
// stdout one JSON object with `correct`, `attempted`, `failed` and
// `metrics`. With --trace 0 the metrics are the end-to-end ones, measured
// with the engine at its defaults; with --trace 1 they are the per-layer
// ones, from a run with the benchmark's timers and hooks attached. A
// human-readable account (sample counts, tails, failures) goes to stderr.
// --guard-out writes the determinism-guard values for run.py to compare
// across runs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the printed names against it).
constexpr MetricSpec kEndToEnd[] = {
    {"window_s", "s"},  {"tuples_per_s", "1/s"}, {"trigger_s", "s"},
    {"setup_s", "s"},   {"peak_rss_mb", "MB"},   {"total_work", "work"},
};

// Per-layer metrics. A workload that bypasses a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"workload.gen_s", "s"},
    {"storage.advance_s", "s"},
    {"storage.released_tuples", "count"},
    {"storage.trimmed_tuples", "count"},
    {"storage.trim_ratio", "ratio"},
    {"exec.subplan_s", "s"},
    {"exec.join_s", "s"},
    {"exec.agg_s", "s"},
    {"exec.other_s", "s"},
    {"exec.final_s", "s"},
    {"exec.driver_s", "s"},
    {"exec.executions", "count"},
    {"exec.idle_exec_ratio", "ratio"},
    {"exec.work_per_s", "work/s"},
    {"exec.columnar_tuple_share", "ratio"},
    {"exec.catchup_execs", "count"},
    {"exec.skipped_execs", "count"},
    {"exec.rederivations", "count"},
    {"exec.goals_missed", "count"},
    {"opt.opt_s", "s"},
    {"mqo.merge_s", "s"},
    {"opt.pace_search_s", "s"},
    {"opt.decompose_s", "s"},
    {"opt.pace_search_iterations", "count"},
    {"opt.decompose_rounds", "count"},
    {"cost.estimate_calls", "count"},
    {"cost.memo_hit_ratio", "ratio"},
    {"sched.speedup", "x"},
    {"sched.pool_tasks", "count"},
    {"sched.step_waves", "count"},
    {"sched.idle_share", "ratio"},
    {"arrange.state_bytes_per_query", "bytes"},
    {"arrange.count", "count"},
    {"arrange.max_chain", "count"},
    {"arrange.compact_folded", "count"},
    {"arrange.dedup_ratio", "ratio"},
    {"arrange.speedup_vs_private", "x"},
    {"churn.epoch_step_s", "s"},
    {"churn.epoch_step_tail_s", "s"},
    {"churn.steady_step_s", "s"},
    {"churn.carry_ratio", "ratio"},
    {"churn.epochs", "count"},
    {"churn.registrations", "count"},
    {"churn.deregistrations", "count"},
    {"churn.deferrals", "count"},
    {"churn.quiesce_work", "work"},
    {"shard.round_s", "s"},
    {"shard.rounds", "count"},
    {"shard.merged_tuples", "count"},
    {"shard.exchange_delivered_tuples", "count"},
    {"shard.exchange_drained_tuples", "count"},
    {"recovery.checkpoints", "count"},
    {"recovery.checkpoint_bytes", "bytes"},
    {"recovery.encode_s", "s"},
    {"trace.overhead", "ratio"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ishare_perfbench --workload "
               "<tpch22|arrange128|churn|shard2> --seed <n> --seconds <s> "
               "--trace <0|1> [--guard-out <path>]\n",
               msg);
  return 2;
}

// Checks the workload's metrics against the selected list and returns them
// in list order, zero-filling per-layer metrics of bypassed layers.
template <size_t N>
std::vector<std::pair<std::string, std::pair<double, std::string>>>
Complete(const MetricSpec (&specs)[N], bool zero_fill, Outcome* out) {
  std::map<std::string, std::pair<double, std::string>> got = out->metrics();
  std::vector<std::pair<std::string, std::pair<double, std::string>>> list;
  for (const MetricSpec& m : specs) {
    auto it = got.find(m.name);
    if (it == got.end()) {
      if (!zero_fill) out->Problem(std::string("metric missing: ") + m.name);
      list.push_back({m.name, {0.0, m.unit}});
      continue;
    }
    if (it->second.second != m.unit) {
      out->Problem(std::string("metric ") + m.name + " has unit " +
                   it->second.second + ", expected " + m.unit);
    }
    double v = it->second.first;
    if (!std::isfinite(v)) {
      out->Problem(std::string("metric ") + m.name + " is not finite");
      v = 0;
    }
    list.push_back({m.name, {v, m.unit}});
    got.erase(it);
  }
  for (const auto& [name, vu] : got) {
    out->Problem("metric not in the benchmark's list: " + name);
  }
  return list;
}

int Main(int argc, char** argv) {
  Config cfg;
  std::string guard_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      cfg.trace = v == "1";
    } else if (a == "--guard-out") {
      guard_out = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }

  Stopwatch run;
  Outcome out(cfg);
  std::fprintf(stderr, "workload %s seed %llu seconds %g trace %d\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.seconds, cfg.trace ? 1 : 0);
  if (cfg.workload == "tpch22") {
    RunTpch22(&out);
  } else if (cfg.workload == "arrange128") {
    RunArrange128(&out);
  } else if (cfg.workload == "churn") {
    RunChurn(&out);
  } else if (cfg.workload == "shard2") {
    RunShard2(&out);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }

  auto metrics = cfg.trace ? Complete(kPerLayer, /*zero_fill=*/true, &out)
                           : Complete(kEndToEnd, /*zero_fill=*/false, &out);

  if (!guard_out.empty()) {
    FILE* f = std::fopen(guard_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", guard_out.c_str());
      return 1;
    }
    std::fprintf(f, "{");
    const char* sep = "";
    for (const auto& [k, v] : out.guards()) {
      std::fprintf(f, "%s\"%s\": %.17g", sep, k.c_str(), v);
      sep = ", ";
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  std::fprintf(stderr, "run took %.3g s\n", run.Seconds());
  std::fprintf(stderr, "attempted %lld failed %lld correct %s\n",
               static_cast<long long>(out.attempted()),
               static_cast<long long>(out.failed()),
               out.correct() ? "true" : "false");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<long long>(out.attempted()),
              static_cast<long long>(out.failed()));
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), vu.first, vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
