// Shared pieces of the end-to-end benchmark: the run configuration, the
// outcome every workload reports, timing and sampling helpers, the
// benchmark-owned timed stream source, observability snapshots and the
// result checker.
//
// The benchmark times the engine from outside: it wraps calls into public
// entry points (OptimizePlan, AdaptiveExecutor::RunStep, ChurnRuntime,
// ShardedRuntime), subclasses the public StreamSource extension point, and
// diffs the engine's existing obs registry and tracer. Nothing inside the
// engine is instrumented for it.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ishare/catalog/catalog.h"
#include "ishare/exec/adaptive_executor.h"
#include "ishare/obs/obs.h"
#include "ishare/storage/stream_source.h"

namespace perfbench {

using ishare::Row;
using ResultMap = std::unordered_map<Row, int64_t, ishare::RowHasher>;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured phase (windows plus their output checks).
  double seconds = 10;
  // false: end-to-end metrics, engine at its defaults. true: per-layer
  // metrics from a run with the benchmark's timers and hooks attached.
  bool trace = false;
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Samples of one measured quantity.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  double Sum() const;
  double Median() const;
  // The highest of p99, p95, p90 and p75 (nearest rank) with at least 10
  // samples above it; 0 when even p75 has fewer (under 40 samples).
  double Tail() const;
  // The percentile Tail() reports; 0 when it is unsupported.
  int TailRank() const;

 private:
  std::vector<double> v_;
};

// What one workload run reports: the operation ledger behind `attempted`
// and `failed`, the metrics of the selected mode, the determinism-guard
// values, and anything that makes the run incorrect.
class Outcome {
 public:
  explicit Outcome(const Config& cfg) : cfg_(cfg) {}

  const Config& config() const { return cfg_; }

  void Set(const std::string& name, double value, const std::string& unit);
  // Reports the median of `s` under `name` and logs its sample count (and
  // tail, when supported) on stderr.
  void Timing(const std::string& name, const Samples& s,
              const std::string& unit = "s");

  // One attempted operation: a window or step, or one query result checked
  // against its reference. A failure is logged with `what`.
  void Attempt(bool ok, const std::string& what);

  // Determinism guard: every value recorded under `key` in this run must be
  // identical. The values are also written out for run.py to compare
  // against earlier runs of the same workload and seed.
  void Guard(const std::string& key, double value);

  // Marks the run incorrect (checker self-test failure, determinism drift).
  void Problem(const std::string& what);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return problems_.empty() && failed_ == 0; }
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }
  const std::map<std::string, double>& guards() const { return guards_; }

 private:
  Config cfg_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> guards_;
};

// Per-layer values collected over a run's traced windows, reported as
// medians.
class LayerSamples {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Report(Outcome* out) const;

 private:
  std::map<std::string, std::pair<Samples, std::string>> m_;
};

// Result check: integer and string cells must match exactly, float cells
// within the engine's 1e-9 relative tolerance (harness/result_compare.h).
bool SameResult(const ResultMap& got, const ResultMap& want);

// Checker self-test: a copy of `reference` with one tuple dropped, and one
// with one weight flipped, must each fail SameResult. Reports a Problem on
// `out` otherwise, so a vacuous checker cannot pass.
void SelfTestChecker(const ResultMap& reference, Outcome* out);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Host speed meter. On shared hosts the speed of memory-bound work drifts
// by up to 2x within seconds and between minutes, as other machines' load
// shares the caches and memory. While it runs, the meter's thread times a
// fixed memory-bound probe (an ordered map of 100k pseudo-random keys,
// with no engine code) and then sleeps 100 ms, again and again. A probe
// that took twice as long as kReferenceProbeSeconds saw a host running at
// half the reference speed.
class HostMeter {
 public:
  using Clock = std::chrono::steady_clock;

  HostMeter();
  ~HostMeter();  // stops the thread and waits for it
  HostMeter(const HostMeter&) = delete;
  HostMeter& operator=(const HostMeter&) = delete;

  void Stop();
  // Factor converting wall seconds measured since `from` to seconds at the
  // reference host speed: kReferenceProbeSeconds / the median of the
  // probes that ended since `from`, or of every probe when none did.
  double Scale(Clock::time_point from) const;
  size_t probes() const;

 private:
  mutable std::mutex mu_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, double>> probes_;  // end, seconds
  std::thread thread_;
};

// The set-up and measured phase of a workload run. A HostMeter runs
// throughout, and every time the loop records is wall seconds scaled to
// the reference host speed by the probes that ran during it.
//
// Window -1 is an untimed warm-up whose results every later window must
// reproduce. Windows 0, 1, ... are measured until `seconds` have passed
// and at least 3 whole cycles ran. End-to-end runs have one window kind.
// Traced runs cycle through `traced_cycle` kinds: 0 untraced, 1 traced,
// and any further kinds the workload defines. With `traced_cycle` 1 every
// window of a traced run is traced and trace.overhead is not measured.
class WindowLoop {
 public:
  WindowLoop(Outcome* out, std::string workload, int traced_cycle);

  // Runs the workload's set-up repeatedly: at least 5 times, then until 2
  // seconds of set-up have been measured (at most 50 times). `release`
  // frees the previous repetition's objects, untimed; `build` is the timed
  // set-up. The last repetition's objects serve the run.
  void Setup(const std::function<void()>& release,
             const std::function<void()>& build);

  // Starts the next window; false when the measured phase is over, after
  // reading the run's peak memory.
  bool Next();
  int window() const { return w_; }
  int kind() const { return w_ < 0 ? 0 : w_ % cycle_; }
  // Whether this window collects per-layer values.
  bool traced() const;
  std::string Name() const;

  // Counts the window as an attempted operation; false when it failed.
  bool Check(const ishare::Status& st);
  // Records the window's times, host-scaled: the end-to-end samples in an
  // untraced run, the samples of the window's kind in a traced one.
  void Time(double window_s, double trigger_s);
  const Samples& KindSamples(int kind) const { return kinds_[kind]; }
  // Compares the window's results with the first window's, which are kept.
  void Compare(std::vector<ResultMap> got);
  const std::vector<ResultMap>& first() const { return first_; }

  // Reports the end-to-end metrics in an untraced run. In a traced run it
  // adds trace.overhead (when measured) and reports `layer`.
  void Report(int64_t window_tuples, double total_work, LayerSamples* layer);

 private:
  Outcome* out_;
  std::string workload_;
  int cycle_;
  HostMeter meter_;
  int w_ = -2;
  Stopwatch phase_;
  HostMeter::Clock::time_point window_start_;
  double peak_rss_mb_ = 0;
  Samples setup_s_, window_s_, trigger_s_;
  Samples wall_s_, scale_;  // wall-clock windows and their host scales
  std::vector<Samples> kinds_;
  std::vector<ResultMap> first_;
};

// Base tuples a full trigger window releases from `source`.
int64_t WindowTuples(const ishare::StreamSource& source);

// The benchmark-owned stream source of traced runs: the engine's own
// release schedule, with the time spent releasing rows measured.
class TimedSource : public ishare::StreamSource {
 public:
  double advance_seconds() const { return advance_seconds_; }
  int64_t released_tuples() const;

 protected:
  ishare::Status DoAdvance(double fraction,
                           const ishare::Fraction* exact) override;

 private:
  double advance_seconds_ = 0;
};

// Observes an AdaptiveExecutor from its public hooks: counts subplan
// executions and those that consumed no input (wasted startups) by polling
// every SubplanExecutor after each step, and counts the dependency levels
// the parallel path dispatches. When a subplan runs more than once in a
// step only its last execution is seen.
class ExecProbe {
 public:
  void Attach(ishare::AdaptiveExecutor* exec, int num_subplans);
  int64_t executions() const { return executions_; }
  int64_t idle() const { return idle_; }
  int64_t waves() const { return waves_; }

 private:
  std::vector<int64_t> last_;
  int64_t executions_ = 0;
  int64_t idle_ = 0;
  int64_t waves_ = 0;
};

// Difference of the engine's obs registry and tracer between construction
// and Finish(). Registry::Reset() would free counters the engine caches
// handles to, so segments are measured by diffing snapshots.
class ObsDelta {
 public:
  ObsDelta();
  void Finish();
  double Counter(const std::string& name) const;
  double HistogramSum(const std::string& name) const;
  double SpanSeconds(const std::string& name) const;

 private:
  ishare::obs::MetricsSnapshot before_, after_;
  std::map<std::string, ishare::obs::SpanStats> spans_before_, spans_after_;
};

// Synthetic sales stream: orders(o_id, o_custkey, o_amount) over
// customer(c_custkey, c_region), custkeys uniform, amounts uniform in
// [1, 500).
struct SalesDb {
  SalesDb(int n_orders, int n_customers, uint64_t seed);
  SalesDb(const SalesDb&) = delete;
  SalesDb& operator=(const SalesDb&) = delete;

  ishare::Catalog catalog;
  ishare::StreamSource source;
};

// A fresh copy of `dataset`'s tables, in a TimedSource when `timed`.
std::unique_ptr<ishare::StreamSource> CloneSource(
    const ishare::StreamSource& dataset, bool timed);

struct WindowRun {
  ishare::Result<ishare::AdaptiveRunResult> run =
      ishare::Status::InvalidArgument("window not run");
  double window_s = 0;   // BeginWindow through CompleteWindow
  double trigger_s = 0;  // the last RunStep
};

// Runs one whole trigger window on `exec` step by step.
WindowRun RunWindow(ishare::AdaptiveExecutor* exec,
                    const ishare::PaceConfig& paces);

// Executions in a run: one per recorded per-execution work sample.
int64_t Executions(const ishare::RunResult& run);

// Exec-layer values of one traced window of an AdaptiveExecutor-driven
// workload: subplan seconds in total, at the trigger and by the kind of
// the subplan's top stateful operator (the first join or aggregate below
// its root through filters and projections); execution counts and idle
// share; work rate; pump path shares; and the adaptive layer's decisions.
// Serial runs also get the driver's self time, window_s - subplan seconds
// - advance seconds, which has no meaning when subplans overlap.
void AddExecLayer(const ishare::SubplanGraph& graph,
                  const ishare::AdaptiveRunResult& r, double window_s,
                  double advance_s, bool serial, const ExecProbe& probe,
                  const ObsDelta& obs, LayerSamples* layer);

// Queries whose measured final work exceeds their absolute final-work
// constraint.
int GoalsMissed(const ishare::RunResult& run,
                const std::vector<double>& constraints);

// Workloads. Each sets every metric of the mode `out->config().trace`
// selects that applies to it; main() zero-fills the per-layer metrics of
// layers a workload bypasses.
void RunTpch22(Outcome* out);
void RunArrange128(Outcome* out);
void RunChurn(Outcome* out);
void RunShard2(Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
