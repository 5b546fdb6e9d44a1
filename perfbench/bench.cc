#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "ishare/common/check.h"
#include "ishare/common/rng.h"
#include "ishare/harness/result_compare.h"

namespace perfbench {

using namespace ishare;

double Samples::Sum() const {
  double t = 0;
  for (double x : v_) t += x;
  return t;
}

double Samples::Median() const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

int Samples::TailRank() const {
  const size_t n = v_.size();
  for (int p : {99, 95, 90, 75}) {
    size_t rank = (static_cast<size_t>(p) * n + 99) / 100;  // ceil(p% of n)
    if (n >= rank + 10) return p;
  }
  return 0;
}

double Samples::Tail() const {
  int p = TailRank();
  if (p == 0) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  size_t rank = (static_cast<size_t>(p) * s.size() + 99) / 100;
  return s[rank - 1];
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Outcome::Timing(const std::string& name, const Samples& s,
                     const std::string& unit) {
  Set(name, s.Median(), unit);
  std::fprintf(stderr, "  %-30s median %.6g %s  n=%zu", name.c_str(),
               s.Median(), unit.c_str(), s.size());
  if (s.TailRank() > 0) {
    std::fprintf(stderr, "  p%d %.6g", s.TailRank(), s.Tail());
  }
  if (s.size() <= 100) {
    std::fprintf(stderr, "  [");
    for (double x : s.values()) std::fprintf(stderr, " %.4g", x);
    std::fprintf(stderr, " ]");
  }
  std::fprintf(stderr, "\n");
}

void Outcome::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Outcome::Guard(const std::string& key, double value) {
  auto [it, inserted] = guards_.emplace(key, value);
  if (!inserted && it->second != value) {
    Problem("determinism drift in " + key + ": " +
            std::to_string(it->second) + " then " + std::to_string(value));
  }
}

void Outcome::Problem(const std::string& what) {
  problems_.push_back(what);
  std::fprintf(stderr, "PROBLEM: %s\n", what.c_str());
}

namespace {

// Probe seconds at the reference host speed: about the probe's time on a
// quiet 4-vCPU 2 GHz x86-64 host while one other core is busy.
constexpr double kReferenceProbeSeconds = 0.04;

double HostProbeSeconds() {
  Stopwatch sw;
  std::map<uint64_t, uint64_t> m;
  uint64_t x = 1234567;
  for (uint64_t i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    m[x >> 40] += i;
  }
  volatile size_t keep = m.size();
  (void)keep;
  return sw.Seconds();
}

}  // namespace

HostMeter::HostMeter()
    : thread_([this] {
        for (;;) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_) return;
          }
          double t = HostProbeSeconds();
          {
            std::lock_guard<std::mutex> lock(mu_);
            probes_.emplace_back(Clock::now(), t);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      }) {}

HostMeter::~HostMeter() { Stop(); }

void HostMeter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  if (thread_.joinable()) thread_.join();
}

double HostMeter::Scale(Clock::time_point from) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples since, all;
  for (const auto& [end, seconds] : probes_) {
    all.Add(seconds);
    if (end >= from) since.Add(seconds);
  }
  const Samples& s = since.size() > 0 ? since : all;
  return s.size() > 0 ? kReferenceProbeSeconds / s.Median() : 1.0;
}

size_t HostMeter::probes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_.size();
}

bool SameResult(const ResultMap& got, const ResultMap& want) {
  return got == want || ResultsEquivalent(got, want);
}

void SelfTestChecker(const ResultMap& reference, Outcome* out) {
  if (reference.empty()) {
    out->Problem("checker self-test needs a non-empty reference");
    return;
  }
  ResultMap dropped = reference;
  dropped.erase(dropped.begin());
  ResultMap flipped = reference;
  flipped.begin()->second = -flipped.begin()->second;
  if (SameResult(dropped, reference)) {
    out->Problem("checker accepted a result with one tuple dropped");
  }
  if (SameResult(flipped, reference)) {
    out->Problem("checker accepted a result with one weight flipped");
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

WindowLoop::WindowLoop(Outcome* out, std::string workload, int traced_cycle)
    : out_(out),
      workload_(std::move(workload)),
      cycle_(out->config().trace ? traced_cycle : 1),
      kinds_(static_cast<size_t>(cycle_)) {}

void WindowLoop::Setup(const std::function<void()>& release,
                       const std::function<void()>& build) {
  const HostMeter::Clock::time_point start = HostMeter::Clock::now();
  Samples wall;
  while (wall.size() < 5 || (wall.Sum() < 2.0 && wall.size() < 50)) {
    release();
    Stopwatch sw;
    build();
    wall.Add(sw.Seconds());
  }
  const double scale = meter_.Scale(start);
  for (double x : wall.values()) setup_s_.Add(x * scale);
}

bool WindowLoop::Next() {
  ++w_;
  if (w_ >= 3 * cycle_ && w_ % cycle_ == 0 &&
      phase_.Seconds() >= out_->config().seconds) {
    peak_rss_mb_ = PeakRssMb();
    meter_.Stop();
    std::fprintf(stderr,
                 "  measured %d windows in %.3g s; wall-clock window median "
                 "%.6g s; host scale median %.4g over %zu probes\n",
                 w_, phase_.Seconds(), wall_s_.Median(), scale_.Median(),
                 meter_.probes());
    return false;
  }
  if (w_ == 0) phase_ = Stopwatch();
  window_start_ = HostMeter::Clock::now();
  return true;
}

bool WindowLoop::traced() const {
  return out_->config().trace && w_ >= 0 && (cycle_ == 1 || kind() == 1);
}

std::string WindowLoop::Name() const {
  return workload_ + " window " + std::to_string(w_);
}

bool WindowLoop::Check(const Status& st) {
  out_->Attempt(st.ok(), Name() + ": " + st.ToString());
  return st.ok();
}

void WindowLoop::Time(double window_s, double trigger_s) {
  if (w_ < 0) return;
  const double scale = meter_.Scale(window_start_);
  scale_.Add(scale);
  wall_s_.Add(window_s);
  window_s *= scale;
  trigger_s *= scale;
  if (!out_->config().trace) {
    window_s_.Add(window_s);
    trigger_s_.Add(trigger_s);
  } else {
    kinds_[static_cast<size_t>(kind())].Add(window_s);
  }
}

void WindowLoop::Compare(std::vector<ResultMap> got) {
  if (w_ < 0) {
    first_ = std::move(got);
    return;
  }
  out_->Attempt(got.size() == first_.size(),
                Name() + " has another number of results than the first");
  for (size_t q = 0; q < got.size() && q < first_.size(); ++q) {
    out_->Attempt(got[q] == first_[q], Name() + " result " +
                                           std::to_string(q) +
                                           " differs from the first window");
  }
}

void WindowLoop::Report(int64_t window_tuples, double total_work,
                        LayerSamples* layer) {
  if (!out_->config().trace) {
    out_->Timing("setup_s", setup_s_);
    out_->Timing("window_s", window_s_);
    out_->Timing("trigger_s", trigger_s_);
    out_->Set("tuples_per_s",
              static_cast<double>(window_tuples) / window_s_.Median(), "1/s");
    out_->Set("peak_rss_mb", peak_rss_mb_, "MB");
    out_->Set("total_work", total_work, "work");
    return;
  }
  if (cycle_ >= 2) {
    layer->Add("trace.overhead",
               kinds_[1].Median() / kinds_[0].Median() - 1, "ratio");
  }
  layer->Report(out_);
}

int64_t WindowTuples(const StreamSource& source) {
  int64_t n = 0;
  for (const std::string& t : source.TableNames()) n += source.TotalRows(t);
  return n;
}

int64_t TimedSource::released_tuples() const {
  int64_t n = 0;
  for (const auto& [name, t] : tables_) n += t->released;
  return n;
}

Status TimedSource::DoAdvance(double fraction, const Fraction* exact) {
  Stopwatch sw;
  Status st = StreamSource::DoAdvance(fraction, exact);
  advance_seconds_ += sw.Seconds();
  return st;
}

void ExecProbe::Attach(AdaptiveExecutor* exec, int num_subplans) {
  last_.assign(static_cast<size_t>(num_subplans), 0);
  exec->set_after_step_hook([this, exec](int64_t) {
    for (size_t i = 0; i < last_.size(); ++i) {
      const SubplanExecutor* e = exec->subplan_executor(static_cast<int>(i));
      int64_t n = e->executions();
      if (n > last_[i]) {
        executions_ += n - last_[i];
        if (e->last_input_consumed() == 0) ++idle_;
        last_[i] = n;
      }
    }
    return Status::OK();
  });
  exec->set_after_wave_hook([this](int64_t, int) {
    ++waves_;
    return Status::OK();
  });
}

ObsDelta::ObsDelta()
    : before_(obs::Registry().Snapshot()),
      spans_before_(obs::GlobalTracer().Snapshot()) {}

void ObsDelta::Finish() {
  after_ = obs::Registry().Snapshot();
  spans_after_ = obs::GlobalTracer().Snapshot();
}

namespace {
template <typename Map>
double Lookup(const Map& m, const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}
}  // namespace

double ObsDelta::Counter(const std::string& name) const {
  return Lookup(after_.counters, name) - Lookup(before_.counters, name);
}

double ObsDelta::HistogramSum(const std::string& name) const {
  auto sum = [&name](const obs::MetricsSnapshot& s) {
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
  };
  return sum(after_) - sum(before_);
}

double ObsDelta::SpanSeconds(const std::string& name) const {
  auto total = [&name](const std::map<std::string, obs::SpanStats>& m) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second.total_seconds;
  };
  return total(spans_after_) - total(spans_before_);
}

SalesDb::SalesDb(int n_orders, int n_customers, uint64_t seed) {
  Rng rng(seed);
  Schema orders({{"o_id", DataType::kInt64},
                 {"o_custkey", DataType::kInt64},
                 {"o_amount", DataType::kFloat64}});
  Schema customer(
      {{"c_custkey", DataType::kInt64}, {"c_region", DataType::kString}});
  std::vector<Row> order_rows;
  order_rows.reserve(static_cast<size_t>(n_orders));
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
  CHECK(catalog.AddTable("orders", orders, ComputeTableStats(orders, order_rows))
            .ok());
  CHECK(catalog
            .AddTable("customer", customer,
                      ComputeTableStats(customer, customer_rows))
            .ok());
  source.AddTable("orders", orders, std::move(order_rows));
  source.AddTable("customer", customer, std::move(customer_rows));
}

std::unique_ptr<StreamSource> CloneSource(const StreamSource& dataset,
                                          bool timed) {
  std::unique_ptr<StreamSource> s = timed ? std::make_unique<TimedSource>()
                                          : std::make_unique<StreamSource>();
  CHECK(dataset.CloneTablesInto(s.get()).ok());
  return s;
}

WindowRun RunWindow(AdaptiveExecutor* exec, const PaceConfig& paces) {
  WindowRun w;
  Stopwatch window;
  Status st = exec->BeginWindow(paces);
  while (st.ok() && exec->HasPendingSteps()) {
    Stopwatch step;
    st = exec->RunStep();
    w.trigger_s = step.Seconds();
  }
  w.run = st.ok() ? exec->CompleteWindow() : Result<AdaptiveRunResult>(st);
  w.window_s = window.Seconds();
  return w;
}

int64_t Executions(const RunResult& run) {
  int64_t n = 0;
  for (const SubplanRunStats& s : run.subplans) {
    n += static_cast<int64_t>(s.work_per_exec.size());
  }
  return n;
}

namespace {

PlanKind TopStatefulKind(const PlanNodePtr& root) {
  const PlanNode* n = root.get();
  while (n != nullptr &&
         (n->kind == PlanKind::kFilter || n->kind == PlanKind::kProject) &&
         !n->children.empty()) {
    n = n->children[0].get();
  }
  return n == nullptr ? PlanKind::kScan : n->kind;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void AddExecLayer(const SubplanGraph& graph, const AdaptiveRunResult& r,
                  double window_s, double advance_s, bool serial,
                  const ExecProbe& probe, const ObsDelta& obs,
                  LayerSamples* layer) {
  double subplan_s = 0, final_s = 0, join_s = 0, agg_s = 0, other_s = 0;
  for (int i = 0; i < graph.num_subplans(); ++i) {
    const SubplanRunStats& s = r.run.subplans[static_cast<size_t>(i)];
    subplan_s += s.total_seconds;
    final_s += s.final_seconds;
    switch (TopStatefulKind(graph.subplan(i).root)) {
      case PlanKind::kJoin:
        join_s += s.total_seconds;
        break;
      case PlanKind::kAggregate:
        agg_s += s.total_seconds;
        break;
      default:
        other_s += s.total_seconds;
    }
  }
  layer->Add("exec.subplan_s", subplan_s, "s");
  layer->Add("exec.join_s", join_s, "s");
  layer->Add("exec.agg_s", agg_s, "s");
  layer->Add("exec.other_s", other_s, "s");
  layer->Add("exec.final_s", final_s, "s");
  if (serial) {
    layer->Add("exec.driver_s", window_s - subplan_s - advance_s, "s");
  }
  layer->Add("exec.executions", static_cast<double>(Executions(r.run)),
             "count");
  layer->Add("exec.idle_exec_ratio",
             Ratio(static_cast<double>(probe.idle()),
                   static_cast<double>(probe.executions())),
             "ratio");
  layer->Add("exec.work_per_s", Ratio(r.run.total_work, window_s), "work/s");
  double col = obs.Counter("exec.path.columnar_tuples");
  double row = obs.Counter("exec.path.row_tuples");
  layer->Add("exec.columnar_tuple_share", Ratio(col, col + row), "ratio");
  layer->Add("exec.catchup_execs",
             static_cast<double>(r.stats.catchup_execs), "count");
  layer->Add("exec.skipped_execs",
             static_cast<double>(r.stats.skipped_execs), "count");
  layer->Add("exec.rederivations", r.stats.rederivations, "count");
}

int GoalsMissed(const RunResult& run, const std::vector<double>& constraints) {
  int missed = 0;
  for (size_t q = 0; q < run.query_final_work.size() && q < constraints.size();
       ++q) {
    if (run.query_final_work[q] > constraints[q] * (1 + 1e-9)) ++missed;
  }
  return missed;
}

void LayerSamples::Add(const std::string& name, double value,
                       const std::string& unit) {
  auto& [samples, u] = m_[name];
  samples.Add(value);
  u = unit;
}

void LayerSamples::Report(Outcome* out) const {
  for (const auto& [name, su] : m_) out->Timing(name, su.first, su.second);
}

}  // namespace perfbench
