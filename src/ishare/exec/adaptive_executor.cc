#include "ishare/exec/adaptive_executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "ishare/arrange/arrangement.h"
#include "ishare/flow/shedding.h"
#include "ishare/obs/obs.h"
#include "ishare/sched/wave.h"

namespace ishare {

namespace {

// Reads one checkpoint word that must lie in [lo, hi], failing the reader
// otherwise. The range is checked on the int64 before it narrows to int,
// so an out-of-range word cannot wrap into a valid-looking value.
int ReadIntInRange(recovery::CheckpointReader* r, int64_t lo, int64_t hi,
                   const char* what) {
  const int64_t v = r->I64();
  if (r->ok() && (v < lo || v > hi)) {
    r->Fail(std::string("checkpoint ") + what + " " + std::to_string(v) +
            " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
            "]");
  }
  return r->ok() ? static_cast<int>(v) : 0;
}

constexpr double kEps = 1e-9;
// Drift and overload decisions need at least this many observed
// scheduled executions (early executions are noise-dominated).
constexpr int kMinDriftSamples = 3;

// Checkpoint serde for RunResult. `include_timings = false` skips every
// wall-clock field and is what StateFingerprint() uses: timings differ
// run to run by nature and must not break bit-exact equivalence checks.
// Restore always expects the full (timings included) layout checkpoints
// are written with.
void SnapshotRunStats(recovery::CheckpointWriter* w, const RunResult& r,
                      bool include_timings) {
  w->F64(r.total_work);
  if (include_timings) w->F64(r.total_seconds);
  w->U64(r.subplans.size());
  for (const SubplanRunStats& st : r.subplans) {
    w->U64(st.work_per_exec.size());
    for (double v : st.work_per_exec) w->F64(v);
    if (include_timings) {
      for (double v : st.secs_per_exec) w->F64(v);
    }
    for (double v : st.exec_fraction) w->F64(v);
    w->F64(st.total_work);
    if (include_timings) w->F64(st.total_seconds);
    w->F64(st.final_work);
    if (include_timings) w->F64(st.final_seconds);
    w->I64(st.tuples_out);
  }
  w->U64(r.query_final_work.size());
  for (double v : r.query_final_work) w->F64(v);
  if (include_timings) {
    for (double v : r.query_latency_seconds) w->F64(v);
  }
}

Status RestoreRunStats(recovery::CheckpointReader* r, RunResult* out) {
  out->total_work = r->F64();
  out->total_seconds = r->F64();
  uint64_t n = r->U64();
  if (n > r->remaining()) {
    r->Fail("run-stats subplan count " + std::to_string(n) +
            " exceeds payload");
    return r->status();
  }
  out->subplans.assign(n, SubplanRunStats{});
  for (SubplanRunStats& st : out->subplans) {
    uint64_t ne = r->U64();
    if (ne > r->remaining()) {
      r->Fail("run-stats execution count exceeds payload");
      return r->status();
    }
    st.work_per_exec.resize(ne);
    st.secs_per_exec.resize(ne);
    st.exec_fraction.resize(ne);
    for (double& v : st.work_per_exec) v = r->F64();
    for (double& v : st.secs_per_exec) v = r->F64();
    for (double& v : st.exec_fraction) v = r->F64();
    st.total_work = r->F64();
    st.total_seconds = r->F64();
    st.final_work = r->F64();
    st.final_seconds = r->F64();
    st.tuples_out = r->I64();
  }
  uint64_t nq = r->U64();
  if (nq > r->remaining()) {
    r->Fail("run-stats query count exceeds payload");
    return r->status();
  }
  out->query_final_work.resize(nq);
  out->query_latency_seconds.resize(nq);
  for (double& v : out->query_final_work) v = r->F64();
  for (double& v : out->query_latency_seconds) v = r->F64();
  return r->status();
}

// Serde for the execution substrate: base-buffer consumer offsets (keyed
// by sorted table name; base logs are regenerated by replaying the source
// to the checkpointed fraction), full subplan output buffers, and every
// SubplanExecutor's state. `canonical` selects the operators'
// representation-independent snapshot bytes — the fingerprint layout
// (DESIGN.md §15.5), not restorable when arrangements are enabled.
Status SnapshotEngineState(
    recovery::CheckpointWriter* w, const StreamSource& source,
    const std::vector<std::unique_ptr<DeltaBuffer>>& buffers,
    const std::vector<std::unique_ptr<SubplanExecutor>>& executors,
    bool canonical) {
  std::vector<std::string> names = source.TableNames();  // sorted
  w->U64(names.size());
  for (const std::string& name : names) {
    w->Str(name);
    source.buffer(name)->SnapshotOffsets(w);
  }
  w->U64(buffers.size());
  for (const auto& buf : buffers) {
    CHECK(buf != nullptr);
    buf->Snapshot(w);
  }
  for (const auto& ex : executors) {
    CHECK(ex != nullptr);
    ISHARE_RETURN_NOT_OK(ex->Snapshot(w, canonical));
  }
  return Status::OK();
}

Status RestoreEngineState(
    recovery::CheckpointReader* r, const StreamSource& source,
    const std::vector<std::unique_ptr<DeltaBuffer>>& buffers,
    const std::vector<std::unique_ptr<SubplanExecutor>>& executors) {
  std::vector<std::string> names = source.TableNames();
  uint64_t num_tables = r->U64();
  if (num_tables != names.size()) {
    r->Fail("checkpoint has " + std::to_string(num_tables) +
            " base tables, source has " + std::to_string(names.size()));
    return r->status();
  }
  for (const std::string& name : names) {
    std::string stored = r->Str();
    if (stored != name) {
      r->Fail("checkpoint base table '" + stored +
              "' does not match source table '" + name + "'");
      return r->status();
    }
    ISHARE_RETURN_NOT_OK(source.buffer(name)->RestoreOffsets(r));
  }
  uint64_t num_buffers = r->U64();
  if (num_buffers != buffers.size()) {
    r->Fail("checkpoint has " + std::to_string(num_buffers) +
            " subplan buffers, executor has " +
            std::to_string(buffers.size()));
    return r->status();
  }
  for (const auto& buf : buffers) {
    ISHARE_RETURN_NOT_OK(buf->Restore(r));
  }
  for (const auto& ex : executors) {
    ISHARE_RETURN_NOT_OK(ex->Restore(r));
  }
  return r->status();
}

// Reclaims fully-consumed prefixes of every trimmable engine buffer: all
// base-relation buffers plus every subplan output buffer that is not a
// query root. Roots never trim — they hold the query results that
// MaterializeResult reads out-of-band, so no consumer offset proves
// their tuples were seen. Returns the number of tuples reclaimed. Called
// at pace boundaries when ExecOptions::flow.trim_at_boundaries is set
// (DESIGN.md §9).
int64_t TrimEngineBuffers(
    const SubplanGraph& graph, StreamSource* source,
    const std::vector<std::unique_ptr<DeltaBuffer>>& buffers) {
  std::vector<bool> is_root(buffers.size(), false);
  for (QueryId q = 0; q < graph.num_queries(); ++q) {
    int root = graph.query_root(q);
    if (root >= 0 && root < static_cast<int>(buffers.size())) {
      is_root[static_cast<size_t>(root)] = true;
    }
  }
  int64_t reclaimed = 0;
  for (size_t s = 0; s < buffers.size(); ++s) {
    if (buffers[s] != nullptr && !is_root[s]) {
      reclaimed += buffers[s]->TrimConsumed();
    }
  }
  for (const std::string& name : source->TableNames()) {
    reclaimed += source->buffer(name)->TrimConsumed();
  }
  return reclaimed;
}

// Publishes the `flow.state_bytes_per_query` gauge: total operator-state
// bytes in the arbiter (the "state:" components plus the shared "arr:"
// arrangement components) divided by the number of registered queries —
// the paper's memory-per-query headline, comparable between runs with and
// without shared arrangements. No-op without a budget or with no queries.
void PublishStateBytesPerQuery(const flow::MemoryBudget* budget,
                               int num_queries) {
  if (budget == nullptr || num_queries <= 0) return;
  int64_t bytes = 0;
  const int n = budget->num_components();
  for (int id = 0; id < n; ++id) {
    const std::string name = budget->component_name(id);
    if (name.rfind("state:", 0) == 0 || name.rfind("arr:", 0) == 0) {
      bytes += budget->component_bytes(id);
    }
  }
  obs::Registry()
      .GetGauge("flow.state_bytes_per_query")
      .Set(static_cast<double>(bytes) / static_cast<double>(num_queries));
}

}  // namespace

AdaptiveExecutor::AdaptiveExecutor(const SubplanGraph* graph,
                                   StreamSource* source, ExecOptions opts)
    : AdaptiveExecutor(graph, nullptr, source, {}, AdaptivePolicy(), opts,
                       PaceOptimizerOptions()) {}

AdaptiveExecutor::AdaptiveExecutor(CostEstimator* estimator,
                                   StreamSource* source,
                                   std::vector<double> abs_constraints,
                                   AdaptivePolicy policy, ExecOptions opts,
                                   PaceOptimizerOptions opt_opts)
    : AdaptiveExecutor(&estimator->graph(), estimator, source,
                       std::move(abs_constraints), policy, opts, opt_opts) {
  CHECK_EQ(static_cast<int>(constraints_.size()), graph_->num_queries());
}

AdaptiveExecutor::AdaptiveExecutor(const SubplanGraph* graph,
                                   CostEstimator* estimator,
                                   StreamSource* source,
                                   std::vector<double> abs_constraints,
                                   AdaptivePolicy policy, ExecOptions opts,
                                   PaceOptimizerOptions opt_opts)
    : graph_(graph),
      source_(source),
      estimator_(estimator),
      constraints_(std::move(abs_constraints)),
      policy_(policy),
      opts_(opts),
      opt_opts_(opt_opts),
      topo_(graph->TopoChildrenFirst()) {
  CHECK(graph != nullptr && source != nullptr);
  // With both a memory budget and an estimator the executor runs serial
  // regardless of num_threads: admission and shedding decisions read
  // budget state that every execution changes, so each must see the
  // executions topo-ordered before it.
  if (opts_.sched.num_threads > 1 &&
      (opts_.flow.budget == nullptr || estimator_ == nullptr)) {
    pool_ = std::make_unique<sched::WorkerPool>(opts_.sched.num_threads);
    levels_ = sched::StaticLevels(*graph_);
  } else {
    for (int s : topo_) levels_.push_back({s});
  }
  int n = graph_->num_subplans();
  buffers_.resize(n);
  executors_.resize(n);
  pred_final_.resize(n, 0.0);
  pred_nonfinal_.resize(n, 0.0);
  protective_.resize(n, true);
  slack_.resize(constraints_.size(), 0.0);
  subplan_slack_.resize(n, 0.0);
  sheddable_.resize(n, false);
  // Children-first so a parent's SubplanInput consumers find live buffers.
  // This order is deterministic, which recovery relies on: a freshly
  // constructed executor registers the same consumer ids on the same
  // buffers as the one that wrote the checkpoint.
  for (int i : topo_) {
    const Subplan& sp = graph_->subplan(i);
    buffers_[i] = std::make_unique<DeltaBuffer>(
        sp.root->output_schema, "subplan_" + std::to_string(i));
    if (opts_.flow.budget != nullptr) {
      buffers_[i]->set_soft_limit_bytes(opts_.flow.buffer_soft_limit_bytes);
      buffers_[i]->AttachBudget(opts_.flow.budget);
    }
    executors_[i] = std::make_unique<SubplanExecutor>(
        sp, source_, buffers_, buffers_[i].get(), opts_);
  }
  if (opts_.flow.budget != nullptr) {
    base_component_ = opts_.flow.budget->Register("base");
    PublishBaseBytes();
    if (opts_.arrange.catalog != nullptr) {
      opts_.arrange.catalog->AttachBudget(opts_.flow.budget);
    }
  }
}

AdaptiveExecutor::~AdaptiveExecutor() {
  if (base_component_ >= 0 && opts_.flow.budget != nullptr) {
    opts_.flow.budget->Set(base_component_, 0);
  }
}

void AdaptiveExecutor::PublishBaseBytes() {
  if (base_component_ < 0) return;
  int64_t bytes = 0;
  for (const std::string& name : source_->TableNames()) {
    bytes += source_->buffer(name)->retained_bytes();
  }
  opts_.flow.budget->Set(base_component_, bytes);
}

void AdaptiveExecutor::RecomputePredictions() {
  PlanCost cost = estimator_->Estimate(paces_);
  pred_total_ = cost.total_work;
  int n = graph_->num_subplans();
  for (int s = 0; s < n; ++s) {
    const SimResult& r = estimator_->SubplanResult(s, paces_);
    pred_final_[s] = r.private_final_work;
    pred_nonfinal_[s] =
        paces_[s] > 1
            ? (r.private_total_work - r.private_final_work) /
                  static_cast<double>(paces_[s] - 1)
            : r.private_final_work;
  }
  // A query is at risk when its drift-corrected predicted final work has
  // less than kRiskMargin headroom under its constraint; its subplans are
  // exempt from degradation.
  constexpr double kRiskMargin = 0.05;
  std::vector<bool> at_risk(constraints_.size(), false);
  for (size_t q = 0; q < constraints_.size(); ++q) {
    double corrected = corrected_ratio_ * cost.query_final_work[q];
    at_risk[q] = corrected >= constraints_[q] * (1.0 - kRiskMargin);
    // Zero-slack admission is a standing commitment: drift corrections
    // never talk the policy out of protecting these queries.
    if (q < zero_slack_sticky_.size() && zero_slack_sticky_[q]) {
      at_risk[q] = true;
    }
  }
  // Time slackness (DESIGN.md §9): the shedding policy's ranking. A
  // subplan is only as expendable as the least-slack query it serves,
  // and serving any at-risk query makes it protective — never shed.
  slack_ = QuerySlackFractions(cost, constraints_, corrected_ratio_);
  for (int s = 0; s < n; ++s) {
    protective_[s] = false;
    double min_slack = 1.0;
    for (QueryId q : graph_->subplan(s).queries.ToIds()) {
      if (q < static_cast<QueryId>(at_risk.size()) && at_risk[q]) {
        protective_[s] = true;
      }
      if (q < static_cast<QueryId>(slack_.size())) {
        min_slack = std::min(min_slack, slack_[q]);
      }
    }
    subplan_slack_[s] = min_slack;
    sheddable_[s] = !protective_[s];
    // Forward the slack estimate into the operator tree: zero-slack
    // subplans flip their arrangements to eager compaction (DESIGN.md
    // §15.4), bounding chain memory exactly where latency is tight.
    if (executors_[s] != nullptr) executors_[s]->SetSlackHint(min_slack);
  }
}

void AdaptiveExecutor::RebuildPoints(const Fraction& after) {
  ws_.points.clear();
  int n = graph_->num_subplans();
  for (int s = 0; s < n; ++s) {
    for (int i = 1; i <= paces_[s]; ++i) {
      Fraction f = Fraction::Make(i, paces_[s]);
      if (after < f) ws_.points.insert(f);
    }
  }
  ws_.points.insert(Fraction{1, 1});  // the trigger is never rescheduled away
}

double AdaptiveExecutor::DriftRatio() const {
  if (ws_.sched_execs < kMinDriftSamples ||
      ws_.drift_pred <= kEps) {
    return 1.0;
  }
  return ws_.drift_obs / ws_.drift_pred;
}

Status AdaptiveExecutor::BeginWindow(const PaceConfig& initial_paces) {
  return BeginWindowAt(initial_paces, Fraction{0, 1}, 0);
}

Status AdaptiveExecutor::BeginWindowAt(const PaceConfig& paces,
                                       const Fraction& from,
                                       int64_t completed_steps) {
  ISHARE_RETURN_NOT_OK(ValidatePaceConfig(*graph_, paces));
  if (completed_steps < 0) {
    return Status::InvalidArgument("negative completed step count");
  }
  paces_ = paces;
  corrected_ratio_ = 1.0;
  zero_slack_sticky_.assign(constraints_.size(), false);
  if (estimator_ != nullptr) {
    RecomputePredictions();
    for (size_t q = 0; q < slack_.size() && q < zero_slack_sticky_.size();
         ++q) {
      zero_slack_sticky_[q] = slack_[q] <= 1e-9;
    }
  }
  ws_ = WindowState{};
  ws_.out.run.subplans.resize(graph_->num_subplans());
  ws_.out.stats.pace_history.push_back(paces_);
  ws_.out.flow.query_deferred.assign(graph_->num_queries(), 0);
  ws_.out.flow.query_dropped.assign(graph_->num_queries(), 0);
  ws_.last_point = from;
  ws_.step = completed_steps;
  RebuildPoints(from);
  ws_.active = true;
  return Status::OK();
}

// Hard-budget enforcement: discards the pending input of sheddable
// subplans in descending-slack order until usage fits the budget (or no
// sheddable subplan has pending input left). Runs *before* this step's
// executions so operator state cannot grow with input the budget has no
// room for. Each discard is immediately trimmable, so the trim after
// each drop is what actually returns the bytes.
Status AdaptiveExecutor::ShedDropPass(const std::vector<int>& shed_order) {
  flow::MemoryBudget* budget = opts_.flow.budget;
  flow::FlowStats& fs = ws_.out.flow;
  for (int s : shed_order) {
    if (budget->Pressure() < policy_.drop_pressure_target) break;
    ISHARE_ASSIGN_OR_RETURN(int64_t dropped,
                            executors_[s]->DiscardPendingInput());
    if (dropped == 0) continue;
    fs.dropped_tuples += dropped;
    ws_.out.drop_log.push_back(
        ShedDropEvent{ws_.step + 1, s, subplan_slack_[s], dropped});
    for (QueryId q : graph_->subplan(s).queries.ToIds()) {
      if (q < static_cast<QueryId>(fs.query_dropped.size())) {
        fs.query_dropped[q] += dropped;
      }
    }
    int64_t reclaimed = TrimEngineBuffers(*graph_, source_, buffers_);
    if (reclaimed > 0) {
      ++fs.trims;
      fs.trimmed_tuples += reclaimed;
    }
    PublishBaseBytes();
  }
  return Status::OK();
}

// One event point. Decisions run level by level: a catch-up test reads
// PendingInput() and a backpressure test reads buffer and budget state,
// both of which a child's same-step execution changes, and every child
// sits in a strictly lower level, so each subplan's decision sees exactly
// the state a children-first serial loop would show it. Executions within
// a level touch disjoint executor/buffer state (no parent-child pair
// shares a level). All float accumulation — metrics, run stats, drift —
// is applied after the levels strictly in topo order, so a run with a
// pool reproduces the serial summation order bit for bit (DESIGN.md
// §10). A failed step publishes nothing.
Status AdaptiveExecutor::StepOnce() {
  AdaptiveRunResult& out = ws_.out;
  const bool adaptive = estimator_ != nullptr;
  const int n = graph_->num_subplans();

  Fraction f = *ws_.points.begin();
  ws_.points.erase(ws_.points.begin());
  ISHARE_RETURN_NOT_OK(source_->AdvanceToStep(f.num, f.den));
  PublishBaseBytes();
  const bool is_trigger = (f.num == f.den);
  const int64_t step = ws_.step + 1;  // 1-based step being executed

  // Flow control (DESIGN.md §9): enforce the hard budget by dropping
  // slackest-first if enabled, and compute this step's deferral set from
  // the current pressure. The shed set is decided before any execution so
  // the decision depends only on checkpointed state plus the
  // (deterministic) stream — replayable.
  std::vector<char> shed(n, 0);
  flow::MemoryBudget* mem = adaptive ? opts_.flow.budget : nullptr;
  if (mem != nullptr) {
    std::vector<int> shed_order = flow::ShedOrder(subplan_slack_, sheddable_);
    if (policy_.enable_shed_drop && mem->limited() &&
        mem->Pressure() >= policy_.drop_pressure_target) {
      ISHARE_RETURN_NOT_OK(ShedDropPass(shed_order));
    }
    if (mem->limited() && !is_trigger) {
      int quota = flow::ShedQuota(mem->Pressure(), policy_.shed_pressure_start,
                                  static_cast<int>(shed_order.size()));
      for (int i = 0; i < quota; ++i) shed[shed_order[i]] = 1;
    }
  }

  // Overload: cumulative work has outrun kOverloadFactor times the
  // drift-corrected pro-rata budget for the window progress so far.
  constexpr double kOverloadFactor = 2.0;
  const bool overloaded =
      adaptive && ws_.sched_execs >= kMinDriftSamples &&
      ws_.observed_total >
          DriftRatio() * pred_total_ * f.ToDouble() * kOverloadFactor;

  std::vector<char> ran(n, 0);
  std::vector<char> was_catchup(n, 0);
  std::vector<Status> statuses(n);
  std::vector<ExecRecord> records(n);
  std::vector<int> to_run;
  int wave = 0;  // 0-based index among this step's dispatched levels
  for (const std::vector<int>& level : levels_) {
    to_run.clear();
    for (int s : level) {
      const bool scheduled = f.IsStepOf(paces_[s]);
      bool catchup = false;
      if (adaptive && !is_trigger && scheduled) {
        // Degradation: an overloaded window skips the scheduled
        // intermediate executions of subplans whose queries have slack,
        // merging their input into the next execution.
        if (overloaded && !protective_[s]) {
          ++out.stats.skipped_execs;
          obs::Registry().GetCounter("exec.adaptive.skip").Add(1);
          continue;
        }
        // Slackness-aware deferral: a sheddable subplan's scheduled
        // intermediate execution is pushed to a later point, either by
        // the pressure quota or because its output buffer / the budget
        // refuses admission. The trigger is exempt, so results are
        // unchanged.
        bool defer = shed[s] != 0;
        if (!defer && sheddable_[s] && mem != nullptr) {
          defer = !buffers_[s]->AdmitStatus().ok() ||
                  (mem->limited() &&
                   mem->GrantHeadroom(executors_[s]->last_output_bytes())
                       .IsRetryableBackpressure());
          if (defer) {
            ++out.flow.backpressure_events;
            obs::Registry().GetCounter("flow.backpressure.defer").Add(1);
          }
        }
        if (defer) {
          ++out.flow.shed_deferred;
          for (QueryId q : graph_->subplan(s).queries.ToIds()) {
            if (q < static_cast<QueryId>(out.flow.query_deferred.size())) {
              ++out.flow.query_deferred[q];
            }
          }
          obs::Registry().GetCounter("flow.shed.deferred").Add(1);
          continue;
        }
      } else if (adaptive && !is_trigger && protective_[s] &&
                 executors_[s]->executions() > 0) {
        // Catch-up: an unscheduled execution when the input backlog
        // exceeds kBacklogFactor times what the last execution consumed.
        constexpr double kBacklogFactor = 3.0;
        int64_t baseline =
            std::max<int64_t>(1, executors_[s]->last_input_consumed());
        catchup = executors_[s]->PendingInput() >=
                  static_cast<int64_t>(kBacklogFactor *
                                       static_cast<double>(baseline));
      }
      if (!scheduled && !catchup) continue;
      was_catchup[s] = catchup ? 1 : 0;
      to_run.push_back(s);
    }
    if (to_run.empty()) continue;
    if (before_subplan_) {
      for (int s : to_run) ISHARE_RETURN_NOT_OK(before_subplan_(step, s));
    }
    auto execute = [&](int64_t i) {
      int s = to_run[static_cast<size_t>(i)];
      Result<ExecRecord> r = executors_[s]->ExecuteOnce();
      if (r.ok()) {
        records[s] = *r;
        ran[s] = 1;
      } else {
        statuses[s] = r.status();
      }
    };
    const int64_t count = static_cast<int64_t>(to_run.size());
    if (pool_ != nullptr) {
      pool_->ParallelFor(count, execute);
    } else {
      for (int64_t i = 0; i < count; ++i) execute(i);
    }
    // Levels list subplans in topo order and earlier levels succeeded, so
    // this surfaces the step's first error in topo order.
    for (int s : to_run) ISHARE_RETURN_NOT_OK(statuses[s]);
    if (pool_ != nullptr) {
      obs::Registry().GetCounter("sched.step.waves").Add(1);
      if (after_wave_) ISHARE_RETURN_NOT_OK(after_wave_(step, wave));
      ++wave;
    }
  }

  for (int s : topo_) {
    if (!ran[s]) continue;
    const ExecRecord& rec = records[s];
    executors_[s]->PublishExecMetrics(rec);
    out.flow.admitted_tuples += rec.tuples_in;
    SubplanRunStats& st = out.run.subplans[s];
    st.work_per_exec.push_back(rec.work);
    st.secs_per_exec.push_back(rec.seconds);
    st.exec_fraction.push_back(f.ToDouble());
    st.total_work += rec.work;
    st.total_seconds += rec.seconds;
    st.tuples_out += rec.tuples_out;
    if (is_trigger) {
      st.final_work = rec.work;
      st.final_seconds = rec.seconds;
    }
    out.run.total_work += rec.work;
    out.run.total_seconds += rec.seconds;
    ws_.observed_total += rec.work;
    if (was_catchup[s]) {
      ++out.stats.catchup_execs;
      obs::Registry().GetCounter("exec.adaptive.catchup").Add(1);
    } else if (adaptive) {
      double pred = is_trigger ? pred_final_[s] : pred_nonfinal_[s];
      if (pred > kEps) {
        ws_.drift_obs += rec.work;
        ws_.drift_pred += pred;
        ++ws_.sched_execs;
      }
    }
  }

  double r = DriftRatio();
  out.stats.drift_ratio = r;

  // Mid-window pace re-derivation: when the observed/predicted work
  // ratio has moved by more than kDriftThreshold relative to the last
  // correction, re-aim the optimizer at drift-corrected constraints and
  // warm-start it from the schedule in flight.
  constexpr double kDriftThreshold = 0.5;
  bool drifted = std::abs(r / std::max(corrected_ratio_, kEps) - 1.0) >
                 kDriftThreshold;
  if (adaptive && !is_trigger && drifted &&
      out.stats.rederivations < kMaxRederivations) {
    obs::ScopedSpan rederive_span("exec.adaptive.rederive");
    obs::Registry().GetCounter("exec.adaptive.rederive").Add(1);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<double> scaled(constraints_.size());
    for (size_t q = 0; q < constraints_.size(); ++q) {
      scaled[q] = constraints_[q] / std::max(r, kEps);
    }
    PaceOptimizer optimizer(estimator_, scaled, opt_opts_);
    PaceSearchResult search = r > corrected_ratio_
                                  ? optimizer.FindPaceConfiguration(&paces_)
                                  : optimizer.RefineDecreasing(paces_);
    out.stats.rederive_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ++out.stats.rederivations;
    corrected_ratio_ = r;
    if (search.paces != paces_) {
      paces_ = search.paces;
      out.stats.pace_history.push_back(paces_);
      RebuildPoints(f);
    }
  }
  if (adaptive) RecomputePredictions();
  // Boundary trim: everything below the slowest consumer is dead weight
  // between steps; reclaiming here keeps the step-boundary fingerprints
  // (and therefore checkpoints) deterministic.
  if (opts_.flow.trim_at_boundaries) {
    int64_t reclaimed = TrimEngineBuffers(*graph_, source_, buffers_);
    if (reclaimed > 0) {
      ++out.flow.trims;
      out.flow.trimmed_tuples += reclaimed;
    }
    PublishBaseBytes();
  }
  // Boundary compaction (DESIGN.md §15.4): every reader has finished its
  // EndExecution for this step, so sub-minimum chain prefixes are dead.
  if (opts_.arrange.catalog != nullptr) {
    opts_.arrange.catalog->CompactAtBoundary();
  }
  PublishStateBytesPerQuery(opts_.flow.budget, graph_->num_queries());
  ws_.last_point = f;
  return Status::OK();
}

AdaptiveRunResult AdaptiveExecutor::FinishWindow() {
  AdaptiveRunResult& out = ws_.out;
  obs::Registry().GetGauge("exec.adaptive.drift_ratio").Set(
      out.stats.drift_ratio);
  out.run.query_final_work.assign(graph_->num_queries(), 0.0);
  out.run.query_latency_seconds.assign(graph_->num_queries(), 0.0);
  for (QueryId q = 0; q < graph_->num_queries(); ++q) {
    for (int s : graph_->SubplansOfQuery(q)) {
      out.run.query_final_work[q] += out.run.subplans[s].final_work;
      out.run.query_latency_seconds[q] += out.run.subplans[s].final_seconds;
    }
  }
  ws_.active = false;
  return out;
}

Status AdaptiveExecutor::RunStep() {
  if (!ws_.active) {
    return Status::InvalidArgument(
        "no active window: call BeginWindow or Restore first");
  }
  if (ws_.points.empty()) {
    return Status::InvalidArgument("window has no remaining event points");
  }
  ISHARE_RETURN_NOT_OK(StepOnce());
  ++ws_.step;
  if (after_step_) ISHARE_RETURN_NOT_OK(after_step_(ws_.step));
  return Status::OK();
}

Result<AdaptiveRunResult> AdaptiveExecutor::CompleteWindow() {
  if (!ws_.active) {
    return Status::InvalidArgument(
        "no active window: call BeginWindow or Restore first");
  }
  if (!ws_.points.empty()) {
    return Status::InvalidArgument("window still has pending event points");
  }
  return FinishWindow();
}

Result<AdaptiveRunResult> AdaptiveExecutor::ResumeWindow() {
  if (!ws_.active) {
    return Status::InvalidArgument(
        "no active window: call BeginWindow or Restore first");
  }
  obs::ScopedSpan run_span("exec.adaptive.run");
  while (!ws_.points.empty()) ISHARE_RETURN_NOT_OK(RunStep());
  return FinishWindow();
}

Result<AdaptiveRunResult> AdaptiveExecutor::Run(
    const PaceConfig& initial_paces) {
  ISHARE_RETURN_NOT_OK(BeginWindow(initial_paces));
  return ResumeWindow();
}

Status AdaptiveExecutor::SnapshotImpl(recovery::CheckpointWriter* w,
                                      bool include_timings) const {
  w->U64(paces_.size());
  for (int p : paces_) w->I64(p);
  w->F64(corrected_ratio_);
  w->U64(zero_slack_sticky_.size());
  for (bool b : zero_slack_sticky_) w->I64(b ? 1 : 0);
  w->I64(ws_.last_point.num);
  w->I64(ws_.last_point.den);
  w->U64(ws_.points.size());
  for (const Fraction& f : ws_.points) {
    w->I64(f.num);
    w->I64(f.den);
  }
  w->I64(ws_.step);
  w->F64(ws_.drift_obs);
  w->F64(ws_.drift_pred);
  w->I64(ws_.sched_execs);
  w->F64(ws_.observed_total);
  const AdaptationStats& st = ws_.out.stats;
  w->I64(st.rederivations);
  w->I64(st.skipped_execs);
  w->I64(st.catchup_execs);
  w->F64(st.drift_ratio);
  if (include_timings) w->F64(st.rederive_seconds);
  w->U64(st.pace_history.size());
  for (const PaceConfig& pc : st.pace_history) {
    w->U64(pc.size());
    for (int p : pc) w->I64(p);
  }
  const flow::FlowStats& fs = ws_.out.flow;
  w->I64(fs.admitted_tuples);
  w->I64(fs.dropped_tuples);
  w->I64(fs.shed_deferred);
  w->I64(fs.backpressure_events);
  w->I64(fs.trims);
  w->I64(fs.trimmed_tuples);
  w->U64(fs.query_deferred.size());
  for (int64_t v : fs.query_deferred) w->I64(v);
  w->U64(fs.query_dropped.size());
  for (int64_t v : fs.query_dropped) w->I64(v);
  SnapshotRunStats(w, ws_.out.run, include_timings);
  // Real checkpoints carry the shared catalog before the engine state
  // (operators re-attach to the restored contents); fingerprints instead
  // write every operator's state in the owned layout, so two runs
  // differing only in arrangement sharing fingerprint identically.
  if (include_timings && opts_.arrange.catalog != nullptr) {
    ISHARE_RETURN_NOT_OK(opts_.arrange.catalog->Snapshot(w));
  }
  return SnapshotEngineState(w, *source_, buffers_, executors_,
                             /*canonical=*/!include_timings);
}

Status AdaptiveExecutor::Snapshot(recovery::CheckpointWriter* w) const {
  return SnapshotImpl(w, /*include_timings=*/true);
}

Status AdaptiveExecutor::Restore(recovery::CheckpointReader* r) {
  uint64_t np = r->U64();
  if (np != static_cast<uint64_t>(graph_->num_subplans())) {
    r->Fail("checkpoint pace table has " + std::to_string(np) +
            " entries for a graph with " +
            std::to_string(graph_->num_subplans()) + " subplans");
    return r->status();
  }
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  PaceConfig paces(np);
  for (int& p : paces) p = ReadIntInRange(r, 1, kIntMax, "pace");
  if (!r->ok()) return r->status();
  Status st = ValidatePaceConfig(*graph_, paces);
  if (!st.ok()) {
    r->Fail("checkpoint pace table invalid: " + st.ToString());
    return r->status();
  }
  paces_ = paces;
  corrected_ratio_ = r->F64();
  uint64_t nsticky = r->U64();
  if (nsticky > r->remaining()) {
    r->Fail("checkpoint zero-slack flag vector exceeds payload");
    return r->status();
  }
  zero_slack_sticky_.assign(nsticky, false);
  for (uint64_t i = 0; i < nsticky; ++i) {
    zero_slack_sticky_[i] = r->I64() != 0;
  }
  if (!r->ok()) return r->status();

  ws_ = WindowState{};
  int64_t lp_num = r->I64();
  int64_t lp_den = r->I64();
  if (lp_den <= 0 || lp_num < 0 || lp_num > lp_den) {
    r->Fail("checkpoint window position " + std::to_string(lp_num) + "/" +
            std::to_string(lp_den) + " invalid");
    return r->status();
  }
  ws_.last_point = Fraction::Make(lp_num, lp_den);
  uint64_t num_points = r->U64();
  if (num_points > r->remaining()) {
    r->Fail("checkpoint event-point count exceeds payload");
    return r->status();
  }
  for (uint64_t i = 0; i < num_points && r->ok(); ++i) {
    int64_t num = r->I64();
    int64_t den = r->I64();
    if (den <= 0 || num < 0 || num > den) {
      r->Fail("checkpoint event point " + std::to_string(num) + "/" +
              std::to_string(den) + " invalid");
      return r->status();
    }
    ws_.points.insert(Fraction::Make(num, den));
  }
  ws_.step = r->I64();
  ws_.drift_obs = r->F64();
  ws_.drift_pred = r->F64();
  ws_.sched_execs = r->I64();
  ws_.observed_total = r->F64();
  AdaptationStats& stats = ws_.out.stats;
  stats.rederivations =
      ReadIntInRange(r, 0, kMaxRederivations, "rederivation count");
  stats.skipped_execs = r->I64();
  stats.catchup_execs = r->I64();
  stats.drift_ratio = r->F64();
  stats.rederive_seconds = r->F64();
  uint64_t nh = r->U64();
  if (nh > r->remaining()) {
    r->Fail("checkpoint pace-history count exceeds payload");
    return r->status();
  }
  stats.pace_history.clear();
  for (uint64_t i = 0; i < nh && r->ok(); ++i) {
    uint64_t len = r->U64();
    if (len > r->remaining()) {
      r->Fail("checkpoint pace-history entry exceeds payload");
      return r->status();
    }
    PaceConfig pc(len);
    for (int& p : pc) p = ReadIntInRange(r, 1, kIntMax, "pace-history entry");
    stats.pace_history.push_back(std::move(pc));
  }
  flow::FlowStats& fs = ws_.out.flow;
  fs.admitted_tuples = r->I64();
  fs.dropped_tuples = r->I64();
  fs.shed_deferred = r->I64();
  fs.backpressure_events = r->I64();
  fs.trims = r->I64();
  fs.trimmed_tuples = r->I64();
  uint64_t nqd = r->U64();
  if (nqd > r->remaining()) {
    r->Fail("checkpoint flow deferred-count vector exceeds payload");
    return r->status();
  }
  fs.query_deferred.assign(nqd, 0);
  for (int64_t& v : fs.query_deferred) v = r->I64();
  uint64_t nqx = r->U64();
  if (nqx > r->remaining()) {
    r->Fail("checkpoint flow dropped-count vector exceeds payload");
    return r->status();
  }
  fs.query_dropped.assign(nqx, 0);
  for (int64_t& v : fs.query_dropped) v = r->I64();
  if (!r->ok()) return r->status();
  // Replay the source to the checkpointed event point before restoring
  // consumer offsets against the regenerated base logs.
  if (ws_.last_point.num > 0) {
    ISHARE_RETURN_NOT_OK(
        source_->AdvanceToStep(ws_.last_point.num, ws_.last_point.den));
  }
  ISHARE_RETURN_NOT_OK(RestoreRunStats(r, &ws_.out.run));
  if (ws_.out.run.subplans.size() !=
      static_cast<size_t>(graph_->num_subplans())) {
    r->Fail("checkpoint run stats cover " +
            std::to_string(ws_.out.run.subplans.size()) +
            " subplans, graph has " +
            std::to_string(graph_->num_subplans()));
    return r->status();
  }
  if (opts_.arrange.catalog != nullptr) {
    ISHARE_RETURN_NOT_OK(opts_.arrange.catalog->Restore(r));
  }
  ISHARE_RETURN_NOT_OK(RestoreEngineState(r, *source_, buffers_, executors_));
  if (estimator_ != nullptr) RecomputePredictions();
  // Base buffers were regenerated untrimmed by the source replay above;
  // re-establish the boundary-trim invariant (everything below the min
  // consumer offset reclaimed) so the physical state — and every later
  // trim increment — matches the uninterrupted run. Not counted in
  // FlowStats: the restored counters already cover these tuples.
  if (opts_.flow.trim_at_boundaries) {
    TrimEngineBuffers(*graph_, source_, buffers_);
  }
  PublishBaseBytes();
  ws_.active = true;
  return r->status();
}

std::string AdaptiveExecutor::StateFingerprint() const {
  recovery::CheckpointWriter w;
  Status st = SnapshotImpl(&w, /*include_timings=*/false);
  CHECK(st.ok()) << "fingerprint failed: " << st.ToString();
  return w.Take();
}

int64_t AdaptiveExecutor::ReplayBacklog() const {
  int64_t backlog = 0;
  for (const auto& ex : executors_) backlog += ex->PendingInput();
  return backlog;
}

int64_t AdaptiveExecutor::ConsumedInput() const {
  int64_t consumed = 0;
  for (const auto& ex : executors_) consumed += ex->ConsumedInput();
  return consumed;
}

DeltaBuffer* AdaptiveExecutor::query_output(QueryId q) const {
  int root = graph_->query_root(q);
  CHECK_GE(root, 0);
  return buffers_[root].get();
}

std::unordered_map<Row, int64_t, RowHasher> MaterializeResult(
    const DeltaBuffer& buffer, QueryId q) {
  std::unordered_map<Row, int64_t, RowHasher> out;
  for (const DeltaTuple& t : buffer.log()) {
    if (!t.qset.Contains(q)) continue;
    out[t.row] += t.weight;
  }
  for (auto it = out.begin(); it != out.end();) {
    if (it->second == 0) {
      it = out.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

}  // namespace ishare
