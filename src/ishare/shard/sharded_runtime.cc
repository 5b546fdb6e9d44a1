#include "ishare/shard/sharded_runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ishare/obs/obs.h"

namespace ishare::shard {

namespace {
// Bumped whenever the group blob layout changes (shard blobs carry the
// executor's own version inside). Version 2 dropped the merged result
// buffers and the merge consumer offset on every shard's root buffers.
constexpr uint32_t kShardCheckpointVersion = 2;
}  // namespace

ShardedRuntime::ShardedRuntime(const Catalog* catalog,
                               const StreamSource& dataset,
                               std::vector<QueryPlan> plans,
                               std::vector<double> constraints,
                               ShardOptions opts)
    : catalog_(catalog),
      plans_(std::move(plans)),
      constraints_(std::move(constraints)),
      opts_(std::move(opts)) {
  if (opts_.num_shards < 1) {
    init_ = Status::InvalidArgument("num_shards must be >= 1, got " +
                                    std::to_string(opts_.num_shards));
    return;
  }
  if (plans_.empty()) {
    init_ = Status::InvalidArgument("sharded runtime needs >= 1 query plan");
    return;
  }

  init_ = fabric_.Init(dataset, opts_.plan, opts_.num_shards,
                       opts_.exec.flow.budget);
  if (!init_.ok()) return;

  if (opts_.store == nullptr) {
    owned_store_ = std::make_unique<recovery::MemoryCheckpointStore>();
  }
  mgr_ = std::make_unique<recovery::CheckpointManager>(
      opts_.store != nullptr ? opts_.store : owned_store_.get(),
      opts_.checkpoint);
  supervisor_ = std::make_unique<chaos::Supervisor>(mgr_.get());

  const size_t n = static_cast<size_t>(opts_.num_shards);
  crashed_.assign(n, false);
  stalled_until_.assign(n, 0);
  escalated_.assign(n, false);

  init_ = BuildShards();
}

Status ShardedRuntime::BuildShards() {
  // Teardown in dependency order: executors reference estimators, graphs
  // and sources.
  execs_.clear();
  estimators_.clear();
  graphs_.clear();
  sources_.clear();
  fabric_.ResetDelivery();

  for (int s = 0; s < opts_.num_shards; ++s) {
    sources_.push_back(std::make_unique<ExchangeShardSource>(&fabric_, s));
    graphs_.push_back(
        std::make_unique<SubplanGraph>(SubplanGraph::Build(plans_)));
    ISHARE_RETURN_NOT_OK(graphs_.back()->Validate());
    estimators_.push_back(std::make_unique<CostEstimator>(
        graphs_.back().get(), catalog_, opts_.exec));
    execs_.push_back(std::make_unique<AdaptiveExecutor>(
        estimators_.back().get(), sources_.back().get(), constraints_,
        opts_.policy, opts_.exec));
  }
  num_queries_ = graphs_[0]->num_queries();
  return Status::OK();
}

Status ShardedRuntime::BeginWindow(int max_pace) {
  ISHARE_RETURN_NOT_OK(init_);
  if (window_active_) {
    return Status::InvalidArgument("window already active");
  }
  if (max_pace < 1) {
    return Status::InvalidArgument("max_pace must be >= 1");
  }
  max_pace_ = max_pace;
  for (int s = 0; s < opts_.num_shards; ++s) {
    PaceConfig paces(
        static_cast<size_t>(graphs_[static_cast<size_t>(s)]->num_subplans()),
        max_pace);
    ISHARE_RETURN_NOT_OK(execs_[static_cast<size_t>(s)]->BeginWindow(paces));
  }
  round_ = 0;
  window_active_ = true;
  return Status::OK();
}

int64_t ShardedRuntime::LeadSteps() const {
  int64_t lead = 0;
  for (const auto& e : execs_) lead = std::max(lead, e->completed_steps());
  return lead;
}

double ShardedRuntime::MinDataFraction() const {
  double min_f = 1.0;
  for (const auto& e : execs_) {
    // A finished shard sits at the trigger; a pending one at its last
    // completed point. The minimum is the group's data progress — the
    // signal a straggler beyond slack stalls.
    min_f = std::min(min_f, e->position().ToDouble());
  }
  return min_f;
}

Status ShardedRuntime::RunRound() {
  ISHARE_RETURN_NOT_OK(init_);
  if (!window_active_) return Status::InvalidArgument("no active window");

  bool any_crashed = false;
  for (size_t s = 0; s < crashed_.size(); ++s) any_crashed |= crashed_[s];
  if (any_crashed) ISHARE_RETURN_NOT_OK(Recover());

  ++round_;
  ++stats_.rounds;

  // ---- step phase: one point per live shard, stragglers catch up -------
  const int64_t lead_before = LeadSteps();
  for (int s = 0; s < opts_.num_shards; ++s) {
    if (round_ <= stalled_until_[static_cast<size_t>(s)]) continue;
    AdaptiveExecutor* e = execs_[static_cast<size_t>(s)].get();
    if (!e->HasPendingSteps()) continue;
    int64_t lag = std::max<int64_t>(0, lead_before - e->completed_steps());
    // Extra steps per round a lagging shard runs: one while its lag is
    // absorbed, a burst once escalated (straggler policy, DESIGN.md §14).
    constexpr int kAbsorbCatchupSteps = 1;
    constexpr int kEscalateCatchupSteps = 4;
    int steps = 1;
    if (lag > 0) {
      steps += escalated_[static_cast<size_t>(s)] ? kEscalateCatchupSteps
                                                  : kAbsorbCatchupSteps;
    }
    while (steps-- > 0 && e->HasPendingSteps() &&
           e->completed_steps() <= lead_before) {
      ISHARE_RETURN_NOT_OK(e->RunStep());
    }
  }

  DetectStragglers();
  return Supervise();
}

void ShardedRuntime::DetectStragglers() {
  const int64_t lead = LeadSteps();
  bool any_lag = false;
  for (int s = 0; s < opts_.num_shards; ++s) {
    AdaptiveExecutor* e = execs_[static_cast<size_t>(s)].get();
    const int64_t lag =
        std::max<int64_t>(0, lead - e->completed_steps());
    if (!e->HasPendingSteps() || lag == 0) {
      escalated_[static_cast<size_t>(s)] = false;
      continue;
    }
    any_lag = true;
    stats_.straggler_lag_steps += lag;
    obs::Registry()
        .GetHistogram("shard.straggler.lag_steps",
                      obs::Histogram::ExpBounds(1, 2, 12))
        .Observe(static_cast<double>(lag));

    // Slack-to-lag conversion (DESIGN.md §14): the shard's least-slack
    // query bounds how many window steps of lag the group can absorb
    // without risking constraints.
    double min_slack = 1.0;
    for (double sl : e->query_slack()) min_slack = std::min(min_slack, sl);
    const int64_t allowance = std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(
               min_slack * opts_.straggler.absorb_slack_fraction *
               static_cast<double>(max_pace_))));
    if (lag <= allowance) {
      ++stats_.straggler_absorbed;
    } else {
      ++stats_.straggler_escalations;
      escalated_[static_cast<size_t>(s)] = true;
    }
  }
  if (any_lag) ++stats_.straggler_observations;
}

Status ShardedRuntime::Supervise() {
  const double window_fraction = std::min(
      1.0, static_cast<double>(round_) / static_cast<double>(max_pace_));
  supervisor_->ObserveSourceProgress(round_, window_fraction,
                                     MinDataFraction());
  if (opts_.exec.flow.budget != nullptr) {
    supervisor_->ObserveMemoryPressure(round_,
                                       opts_.exec.flow.budget->Pressure());
  }
  flow::FlowStats agg;
  for (const auto& e : execs_) {
    const flow::FlowStats& f = e->flow_stats();
    agg.admitted_tuples += f.admitted_tuples;
    agg.dropped_tuples += f.dropped_tuples;
    agg.shed_deferred += f.shed_deferred;
    agg.backpressure_events += f.backpressure_events;
  }
  supervisor_->ObserveFlow(round_, agg);
  // Supervised group checkpoint: one blob covering every shard, committed
  // through the two-phase store — the all-shards-or-none epoch.
  return supervisor_->OnStepComplete(round_, *this);
}

bool ShardedRuntime::HasPendingRounds() const {
  if (!init_.ok() || !window_active_) return false;
  for (size_t s = 0; s < crashed_.size(); ++s) {
    if (crashed_[s]) return true;
  }
  for (const auto& e : execs_) {
    if (e->HasPendingSteps()) return true;
  }
  return false;
}

Result<ShardRunResult> ShardedRuntime::FinishWindow() {
  ISHARE_RETURN_NOT_OK(init_);
  if (!window_active_) return Status::InvalidArgument("no active window");
  // Drain leftovers (including a crash injected after the last step).
  while (HasPendingRounds()) ISHARE_RETURN_NOT_OK(RunRound());

  ShardRunResult out;
  out.shards.reserve(execs_.size());
  for (auto& e : execs_) {
    ISHARE_ASSIGN_OR_RETURN(AdaptiveRunResult r, e->CompleteWindow());
    out.shards.push_back(std::move(r));
    // CompleteWindow finalizes per-query aggregates, so the roots are
    // complete only now.
    for (QueryId q = 0; q < num_queries_; ++q) {
      stats_.merged_tuples += e->query_output(q)->size();
    }
  }
  window_active_ = false;

  out.stats = stats_;
  out.exchange = fabric_.stats();
  out.supervisor = supervisor_->stats();
  out.ladder_log = supervisor_->ladder_log();
  out.final_level = supervisor_->level();
  out.checkpoints = mgr_->stats().checkpoints;
  for (const AdaptiveRunResult& r : out.shards) {
    out.dropped_tuples += r.flow.dropped_tuples;
  }
  PublishObs(out);
  return out;
}

Result<ShardRunResult> ShardedRuntime::Run(int max_pace) {
  ISHARE_RETURN_NOT_OK(BeginWindow(max_pace));
  while (HasPendingRounds()) ISHARE_RETURN_NOT_OK(RunRound());
  return FinishWindow();
}

Status ShardedRuntime::InjectStall(int s, int64_t rounds) {
  ISHARE_RETURN_NOT_OK(init_);
  if (s < 0 || s >= opts_.num_shards) {
    return Status::InvalidArgument("no shard " + std::to_string(s));
  }
  if (rounds < 1) {
    return Status::InvalidArgument("stall rounds must be >= 1");
  }
  stalled_until_[static_cast<size_t>(s)] = round_ + rounds;
  return Status::OK();
}

Status ShardedRuntime::InjectCrash(int s) {
  ISHARE_RETURN_NOT_OK(init_);
  if (s < 0 || s >= opts_.num_shards) {
    return Status::InvalidArgument("no shard " + std::to_string(s));
  }
  crashed_[static_cast<size_t>(s)] = true;
  return Status::OK();
}

Result<std::unordered_map<Row, int64_t, RowHasher>> ShardedRuntime::
    QueryResult(QueryId q) const {
  ISHARE_RETURN_NOT_OK(init_);
  if (q < 0 || q >= num_queries_) {
    return Status::InvalidArgument("no query " + std::to_string(q));
  }
  // Materialized results are sums of weights per row, so the shards'
  // answers add up whatever order their tuples were appended in.
  std::unordered_map<Row, int64_t, RowHasher> out;
  for (const auto& e : execs_) {
    for (auto& [row, count] : MaterializeResult(*e->query_output(q), q)) {
      out[row] += count;
    }
  }
  std::erase_if(out, [](const auto& rc) { return rc.second == 0; });
  return out;
}

Status ShardedRuntime::Recover() {
  ++stats_.recoveries;
  Result<int64_t> restored = mgr_->RecoverLatest(this);
  if (restored.ok()) {
    stats_.restored_from_epoch = restored.value();
    return Status::OK();
  }
  if (restored.status().code() != StatusCode::kNotFound) {
    return restored.status();
  }
  // No committed group epoch: recovery degrades to a rerun of the window
  // from scratch — cheap, and still consistent (nothing was published).
  ++stats_.restarts;
  ISHARE_RETURN_NOT_OK(BuildShards());
  std::fill(crashed_.begin(), crashed_.end(), false);
  std::fill(stalled_until_.begin(), stalled_until_.end(), 0);
  std::fill(escalated_.begin(), escalated_.end(), false);
  window_active_ = false;
  return BeginWindow(max_pace_);
}

Status ShardedRuntime::Snapshot(recovery::CheckpointWriter* w) const {
  w->U32(kShardCheckpointVersion);
  w->I64(round_);
  w->U32(static_cast<uint32_t>(opts_.num_shards));
  w->U32(static_cast<uint32_t>(num_queries_));
  w->U32(static_cast<uint32_t>(max_pace_));
  // Positions first: Restore pre-delivers the exchange to the group's
  // maximum position before any shard replays, so every regenerated base
  // log covers its checkpointed consumer offsets (a straggler's log can
  // only gain rows it would have received later anyway — pace invariance
  // keeps results bit-exact).
  for (const auto& e : execs_) {
    const Fraction p = e->position();
    w->I64(p.num);
    w->I64(p.den);
  }
  for (int64_t su : stalled_until_) w->I64(su);
  for (const auto& e : execs_) ISHARE_RETURN_NOT_OK(e->Snapshot(w));
  return Status::OK();
}

Status ShardedRuntime::Restore(recovery::CheckpointReader* r) {
  ISHARE_RETURN_NOT_OK(BuildShards());  // fresh substrate, delivery reset

  const uint32_t version = r->U32();
  const int64_t round = r->I64();
  const uint32_t n = r->U32();
  const uint32_t nq = r->U32();
  const uint32_t pace = r->U32();
  if (!r->ok()) return r->status();
  if (version != kShardCheckpointVersion) {
    r->Fail("shard checkpoint version " + std::to_string(version));
    return r->status();
  }
  if (n != static_cast<uint32_t>(opts_.num_shards) ||
      nq != static_cast<uint32_t>(num_queries_)) {
    r->Fail("shard checkpoint shape mismatch: " + std::to_string(n) + "x" +
            std::to_string(nq) + " vs " + std::to_string(opts_.num_shards) +
            "x" + std::to_string(num_queries_));
    return r->status();
  }
  if (round < 0 || pace < 1 ||
      pace > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    r->Fail("shard checkpoint round " + std::to_string(round) + " pace " +
            std::to_string(pace));
    return r->status();
  }

  Fraction max_pos{0, 1};
  for (uint32_t s = 0; s < n; ++s) {
    const Fraction p{r->I64(), r->I64()};  // num, then den
    if (r->ok() && (p.den <= 0 || p.num < 0 || p.num > p.den)) {
      r->Fail("shard " + std::to_string(s) + " checkpoint position " +
              std::to_string(p.num) + "/" + std::to_string(p.den));
    }
    if (!r->ok()) return r->status();
    if (max_pos < p) max_pos = p;
  }
  for (auto& su : stalled_until_) su = r->I64();
  if (!r->ok()) return r->status();

  // Pre-deliver so every shard's replay (below) finds at least the rows
  // it had consumed at checkpoint time already releasable.
  if (max_pos.num > 0) ISHARE_RETURN_NOT_OK(fabric_.DeliverUpTo(max_pos));

  for (auto& e : execs_) ISHARE_RETURN_NOT_OK(e->Restore(r));

  round_ = round;
  max_pace_ = static_cast<int>(pace);
  std::fill(crashed_.begin(), crashed_.end(), false);
  std::fill(escalated_.begin(), escalated_.end(), false);
  window_active_ = true;
  return r->status();
}

void ShardedRuntime::PublishObs(const ShardRunResult& result) const {
  auto& reg = obs::Registry();
  reg.GetCounter("shard.rounds").Add(result.stats.rounds);
  reg.GetCounter("shard.merged_tuples").Add(result.stats.merged_tuples);
  reg.GetCounter("shard.exchange.delivered_tuples")
      .Add(result.exchange.delivered_tuples);
  reg.GetCounter("shard.exchange.drained_tuples")
      .Add(result.exchange.drained_tuples);
  reg.GetHistogram("shard.exchange.bytes",
                   obs::Histogram::ExpBounds(64, 4, 16))
      .Observe(static_cast<double>(result.exchange.delivered_bytes));
  reg.GetCounter("shard.straggler.observations")
      .Add(result.stats.straggler_observations);
  reg.GetCounter("shard.straggler.lag_steps")
      .Add(result.stats.straggler_lag_steps);
  reg.GetCounter("shard.straggler.absorbed")
      .Add(result.stats.straggler_absorbed);
  reg.GetCounter("shard.straggler.escalations")
      .Add(result.stats.straggler_escalations);
  reg.GetCounter("shard.recovery.recoveries").Add(result.stats.recoveries);
  reg.GetCounter("shard.recovery.restarts").Add(result.stats.restarts);
  reg.GetCounter("shard.recovery.epochs").Add(result.checkpoints);
}

}  // namespace ishare::shard
