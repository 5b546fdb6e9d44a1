#include "ishare/churn/churn_runtime.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"
#include "ishare/recovery/serializer.h"

namespace ishare {
namespace churn {

namespace {

// Deep-copies a subplan tree with every kSubplanInput leaf renumbered to
// the child's *rank* in the subplan's children list. FullSignature over
// the clone is then graph-independent: two subplans from different graphs
// produce the same string iff their operator trees match node for node
// with structurally aligned child references.
PlanNodePtr RenumberClone(const PlanNodePtr& n,
                          const std::unordered_map<int, int>& rank) {
  auto c = std::make_shared<PlanNode>(*n);
  if (c->kind == PlanKind::kSubplanInput) {
    auto it = rank.find(n->input_subplan);
    c->input_subplan = it == rank.end() ? -1 : it->second;
    return c;
  }
  c->children.clear();
  for (const PlanNodePtr& ch : n->children) {
    c->children.push_back(RenumberClone(ch, rank));
  }
  return c;
}

MqoOptions WithExec(MqoOptions mqo, const ExecOptions& exec) {
  mqo.exec = exec;
  return mqo;
}

}  // namespace

ChurnRuntime::ChurnRuntime(const Catalog* catalog, StreamSource* source,
                           QueryProvider provider, ChurnOptions opts)
    : catalog_(catalog),
      source_(source),
      provider_(std::move(provider)),
      opts_(std::move(opts)),
      mqo_(catalog, WithExec(opts_.mqo, opts_.exec)) {
  CHECK(catalog != nullptr && source != nullptr);
  CHECK(provider_ != nullptr) << "churn runtime needs a query provider";
  // Rebuilt subplans replay sibling output buffers from offset 0, which
  // requires the complete logs: boundary trimming is incompatible with
  // churn and forced off for the whole session.
  opts_.exec.flow.trim_at_boundaries = false;
}

const QueryPlan& ChurnRuntime::PlanFor(QueryId q) {
  auto it = plan_cache_.find(q);
  if (it != plan_cache_.end()) return it->second;
  QueryPlan plan = provider_(q);
  CHECK(plan.root != nullptr) << "provider returned null plan for q" << q;
  CHECK_EQ(plan.id, q) << "provider returned plan with mismatched id";
  return plan_cache_.emplace(q, std::move(plan)).first->second;
}

std::vector<QueryPlan> ChurnRuntime::BuildPlans() {
  // Shared group in ascending-id order (live_ is an ordered map), so the
  // merge is a pure function of the membership; unshared queries are
  // appended as private deep clones — clones, because Build identifies
  // sharing by node pointer identity and the cached originals were also
  // the merge inputs.
  std::vector<QueryPlan> shared;
  for (const auto& [id, lq] : live_) {
    if (!lq.unshared) shared.push_back(PlanFor(id));
  }
  std::vector<QueryPlan> out = mqo_.Merge(shared);
  for (const auto& [id, lq] : live_) {
    if (!lq.unshared) continue;
    const QueryPlan& p = PlanFor(id);
    out.push_back(QueryPlan{
        p.id, p.name,
        PlanNode::CloneRestricted(p.root, QuerySet::Single(p.id))});
  }
  return out;
}

std::vector<std::string> ChurnRuntime::CanonicalSigs(const SubplanGraph& g) {
  std::vector<std::string> canon(g.num_subplans());
  for (int i : g.TopoChildrenFirst()) {
    const Subplan& sp = g.subplan(i);
    std::unordered_map<int, int> rank;
    for (size_t k = 0; k < sp.children.size(); ++k) {
      rank[sp.children[k]] = static_cast<int>(k);
    }
    std::string s = RenumberClone(sp.root, rank)->FullSignature();
    s += "@" + sp.queries.ToString();
    s += "/" + sp.root_of.ToString();
    for (int c : sp.children) s += "{" + canon[c] + "}";
    canon[i] = std::move(s);
  }
  return canon;
}

std::vector<int> ChurnRuntime::ComputeCarry(const SubplanGraph& oldg,
                                            const SubplanGraph& newg) {
  std::vector<std::string> co = CanonicalSigs(oldg);
  std::vector<std::string> cn = CanonicalSigs(newg);
  std::map<std::string, std::vector<int>> pool;
  for (int j = 0; j < oldg.num_subplans(); ++j) pool[co[j]].push_back(j);
  std::vector<char> used(oldg.num_subplans(), 0);
  std::vector<int> carry(newg.num_subplans(), -1);
  // Children-first: a subplan is carried only when every child carried to
  // the matching old child, so the rebuild set is automatically the
  // up-closure of every changed subplan.
  for (int i : newg.TopoChildrenFirst()) {
    auto it = pool.find(cn[i]);
    if (it == pool.end()) continue;
    const Subplan& nsp = newg.subplan(i);
    for (int j : it->second) {
      if (used[j]) continue;
      const Subplan& osp = oldg.subplan(j);
      if (osp.children.size() != nsp.children.size()) continue;
      bool aligned = true;
      for (size_t k = 0; k < nsp.children.size(); ++k) {
        if (carry[nsp.children[k]] != osp.children[k]) {
          aligned = false;
          break;
        }
      }
      if (!aligned) continue;
      carry[i] = j;
      used[j] = 1;
      break;
    }
  }
  return carry;
}

void ChurnRuntime::PublishCounter(const char* name, double delta) {
  if (delta != 0) obs::Registry().GetCounter(name).Add(delta);
}

Status ChurnRuntime::Register(QueryId q, double constraint) {
  if (q < 0 || q >= QuerySet::kMaxQueryId) {
    return Status::InvalidArgument("query id " + std::to_string(q) +
                                   " out of range");
  }
  if (live_.count(q) > 0) {
    return Status::AlreadyExists("query q" + std::to_string(q) + " is live");
  }
  for (const PendingReg& p : pending_reg_) {
    if (p.id == q) {
      return Status::AlreadyExists("query q" + std::to_string(q) +
                                   " already queued for registration");
    }
  }
  next_id_ = std::max(next_id_, q + 1);
  PendingReg reg;
  reg.id = q;
  reg.constraint = constraint;
  pending_reg_.push_back(reg);
  return Status::OK();
}

Status ChurnRuntime::Deregister(QueryId q) {
  // A queued-but-not-admitted registration is simply withdrawn.
  for (size_t i = 0; i < pending_reg_.size(); ++i) {
    if (pending_reg_[i].id == q) {
      pending_reg_.erase(pending_reg_.begin() + static_cast<int64_t>(i));
      return Status::OK();
    }
  }
  if (live_.count(q) == 0) {
    return Status::NotFound("query q" + std::to_string(q) +
                            " is neither live nor pending");
  }
  for (QueryId d : pending_dereg_) {
    if (d == q) {
      return Status::AlreadyExists("query q" + std::to_string(q) +
                                   " already queued for deregistration");
    }
  }
  bool active = exec_ != nullptr && exec_->window_active();
  if (active) {
    if (live_.size() - pending_dereg_.size() <= 1) {
      return Status::InvalidArgument(
          "cannot deregister the last live query of an active window");
    }
    pending_dereg_.push_back(q);
    return Status::OK();
  }
  // No window in flight: the query's state is already quiescent; keep its
  // current materialization as the drained result and drop it from the
  // membership. The next BeginWindow rebuilds from scratch.
  if (exec_ != nullptr && graph_ != nullptr &&
      graph_->live_queries().Contains(q)) {
    drained_[q] = MaterializeResult(*exec_->query_output(q), q);
    departure_points_[q] = exec_->position();
  }
  live_.erase(q);
  ++stats_.deregistrations;
  PublishCounter("churn.deregistrations", 1);
  return Status::OK();
}

Status ChurnRuntime::InjectChurn(int arrivals, int departures) {
  // Final-work constraint of injected arrivals (effectively
  // unconstrained: synthetic churn queries are slack by definition).
  constexpr double kInjectedConstraint = 1e18;
  for (int i = 0; i < arrivals; ++i) {
    ISHARE_RETURN_NOT_OK(Register(AllocateQueryId(), kInjectedConstraint));
  }
  // Depart the lowest live ids, but never the last live query: chaos must
  // degrade the session, not strand the executor.
  std::vector<QueryId> victims;
  for (const auto& [id, lq] : live_) victims.push_back(id);
  int departed = 0;
  for (QueryId q : victims) {
    if (departed >= departures) break;
    if (live_.size() - pending_dereg_.size() <= 1) break;
    Status st = Deregister(q);
    if (st.code() == StatusCode::kAlreadyExists) continue;  // already queued
    if (!st.ok()) break;  // last-live guard tripped
    ++departed;
  }
  return Status::OK();
}

std::vector<double> ChurnRuntime::ConstraintVector() const {
  std::vector<double> out(static_cast<size_t>(graph_->num_queries()), 0.0);
  for (const auto& [id, lq] : live_) {
    if (id >= 0 && id < static_cast<QueryId>(out.size())) {
      out[static_cast<size_t>(id)] = lq.constraint;
    }
  }
  return out;
}

Status ChurnRuntime::RebuildEngine(std::unique_ptr<SubplanGraph> graph) {
  // Teardown before consumer reset: the destructors return every buffer
  // and state component to the arbiter. Base buffers must then carry
  // exactly the incoming executor's registrations, or a later recovery's
  // RestoreOffsets would see a stale consumer count (DESIGN.md §13).
  exec_.reset();
  estimator_.reset();
  for (const std::string& name : source_->TableNames()) {
    source_->buffer(name)->ClearConsumers();
  }
  graph_ = std::move(graph);
  estimator_ =
      std::make_unique<CostEstimator>(graph_.get(), catalog_, opts_.exec);
  exec_ = std::make_unique<AdaptiveExecutor>(estimator_.get(), source_,
                                             ConstraintVector(), opts_.policy,
                                             opts_.exec, opts_.opt);
  return Status::OK();
}

Status ChurnRuntime::BeginWindow(int max_pace) {
  if (max_pace < 1) {
    return Status::InvalidArgument("max_pace must be >= 1");
  }
  if (exec_ != nullptr && exec_->window_active()) {
    return Status::InvalidArgument("window already active");
  }
  pending_dereg_.clear();  // nothing live was running; nothing to quiesce
  std::vector<PendingReg> regs = std::move(pending_reg_);
  pending_reg_.clear();
  for (const PendingReg& p : regs) {
    live_[p.id] = LiveQuery{p.constraint, p.unshared};
    ++stats_.registrations;
    PublishCounter("churn.registrations", 1);
  }
  if (live_.empty()) {
    return Status::InvalidArgument("no queries registered");
  }
  max_pace_ = max_pace;
  std::vector<QueryPlan> plans = BuildPlans();
  auto g = std::make_unique<SubplanGraph>(SubplanGraph::Build(plans));
  ISHARE_RETURN_NOT_OK(g->Validate());
  ISHARE_RETURN_NOT_OK(RebuildEngine(std::move(g)));
  paces_.assign(static_cast<size_t>(graph_->num_subplans()), max_pace_);
  ++epoch_;
  ++stats_.epochs;
  PublishCounter("churn.epochs", 1);
  return exec_->BeginWindow(paces_);
}

Status ChurnRuntime::RunStep() {
  if (exec_ == nullptr || !exec_->window_active()) {
    return Status::InvalidArgument("no active window: call BeginWindow");
  }
  ISHARE_RETURN_NOT_OK(exec_->RunStep());
  Fraction f = exec_->position();
  // The trigger point never churns: the window just completed, and events
  // queued during the final step wait for the next window.
  if (f.num == f.den) return Status::OK();
  return ProcessBoundary(f);
}

bool ChurnRuntime::HasPendingSteps() const {
  return exec_ != nullptr && exec_->HasPendingSteps();
}

Result<AdaptiveRunResult> ChurnRuntime::FinishWindow() {
  if (exec_ == nullptr) {
    return Status::InvalidArgument("no window: call BeginWindow");
  }
  // Run/flow stats cover the final membership epoch (each epoch switch
  // restarts the executor's window state); the churn.* counters and
  // stats() span the whole session.
  return exec_->CompleteWindow();
}

Status ChurnRuntime::ProcessBoundary(const Fraction& f) {
  int64_t step = exec_->completed_steps();
  std::vector<QueryId> departures = std::move(pending_dereg_);
  pending_dereg_.clear();

  // Admission control (DESIGN.md §9/§13): at/above kAdmissionPressure a
  // due registration is deferred — kResourceExhausted semantics, retried
  // after kBackoffBaseSteps << (k-1) steps on its k-th defer — never
  // failed. After kMaxAdmissionRetries defers, the query is admitted on
  // the private rung.
  constexpr double kAdmissionPressure = 0.9;
  constexpr int64_t kBackoffBaseSteps = 1;
  constexpr int kMaxAdmissionRetries = 4;
  std::vector<PendingReg> due, keep;
  flow::MemoryBudget* budget = opts_.exec.flow.budget;
  for (PendingReg& p : pending_reg_) {
    if (p.retry_at > step) {
      keep.push_back(p);
      continue;
    }
    bool pressured = budget != nullptr && budget->limited() &&
                     budget->Pressure() >= kAdmissionPressure;
    if (pressured && p.attempts < kMaxAdmissionRetries) {
      ++p.attempts;
      p.retry_at =
          step + (kBackoffBaseSteps << std::min(p.attempts - 1, 20));
      ++stats_.deferrals;
      PublishCounter("churn.deferrals", 1);
      keep.push_back(p);
      continue;
    }
    if (pressured) p.unshared = true;  // retries exhausted: degrade, admit
    due.push_back(p);
  }
  pending_reg_ = std::move(keep);
  if (due.empty() && departures.empty()) return Status::OK();
  return SwitchEpoch(f, std::move(due), departures);
}

Status ChurnRuntime::QuiesceQuery(QueryId q, const Fraction& f) {
  // Children-first drain of every subplan serving q: after this pass the
  // query's materialization equals the batch result over the f-prefix of
  // the stream (pace-invariance, DESIGN.md §6).
  std::vector<char> mine(static_cast<size_t>(graph_->num_subplans()), 0);
  for (int s : graph_->SubplansOfQuery(q)) mine[static_cast<size_t>(s)] = 1;
  for (int s : graph_->TopoChildrenFirst()) {
    if (!mine[static_cast<size_t>(s)]) continue;
    ISHARE_ASSIGN_OR_RETURN(ExecRecord rec,
                            exec_->subplan_executor(s)->RunExecution());
    stats_.quiesce_work += rec.work;
    PublishCounter("churn.quiesce_work", rec.work);
  }
  drained_[q] = MaterializeResult(*exec_->query_output(q), q);
  departure_points_[q] = f;
  return Status::OK();
}

Status ChurnRuntime::SwitchEpoch(const Fraction& f,
                                 std::vector<PendingReg> arrivals,
                                 const std::vector<QueryId>& departures) {
  flow::MemoryBudget* budget = opts_.exec.flow.budget;
  for (QueryId q : departures) {
    if (live_.count(q) == 0) continue;
    ISHARE_RETURN_NOT_OK(QuiesceQuery(q, f));
  }
  int64_t used_before = budget != nullptr ? budget->used() : 0;

  for (QueryId q : departures) {
    if (live_.erase(q) > 0) {
      ++stats_.deregistrations;
      PublishCounter("churn.deregistrations", 1);
    }
  }
  for (const PendingReg& p : arrivals) {
    live_[p.id] = LiveQuery{p.constraint, p.unshared};
  }
  if (live_.empty()) {
    return Status::Internal("membership emptied mid-window");
  }

  // Candidate re-merge + carry diff. If admitting the arrivals shared
  // would rebuild more than kMaxRebuildFraction of the running engine,
  // fall back to admitting them unshared — the running queries keep
  // their state, the arrivals run privately.
  constexpr double kMaxRebuildFraction = 0.5;
  std::vector<QueryPlan> plans = BuildPlans();
  auto candidate = std::make_unique<SubplanGraph>(SubplanGraph::Build(plans));
  ISHARE_RETURN_NOT_OK(candidate->Validate());
  std::vector<int> carry = ComputeCarry(*graph_, *candidate);
  if (!arrivals.empty() && graph_->num_subplans() > 0) {
    std::vector<char> carried_old(static_cast<size_t>(graph_->num_subplans()),
                                  0);
    for (int j : carry) {
      if (j >= 0) carried_old[static_cast<size_t>(j)] = 1;
    }
    int rebuilt_old = 0;
    for (char c : carried_old) {
      if (!c) ++rebuilt_old;
    }
    double rebuild_fraction = static_cast<double>(rebuilt_old) /
                              static_cast<double>(graph_->num_subplans());
    if (rebuild_fraction > kMaxRebuildFraction) {
      bool changed = false;
      for (const PendingReg& p : arrivals) {
        LiveQuery& lq = live_[p.id];
        if (!lq.unshared) {
          lq.unshared = true;
          changed = true;
          ++stats_.unshared_fallbacks;
          PublishCounter("churn.unshared_fallbacks", 1);
        }
      }
      if (changed) {
        plans = BuildPlans();
        candidate = std::make_unique<SubplanGraph>(SubplanGraph::Build(plans));
        ISHARE_RETURN_NOT_OK(candidate->Validate());
        carry = ComputeCarry(*graph_, *candidate);
      }
    }
  }
  for (const PendingReg& p : arrivals) {
    ++stats_.registrations;
    PublishCounter("churn.registrations", 1);
    if (p.unshared) {
      // Admission-exhaustion fallback (the rebuild-fraction path counted
      // its own flips above).
      ++stats_.unshared_fallbacks;
      PublishCounter("churn.unshared_fallbacks", 1);
    }
  }

  // Stash carried state: operator snapshot, leaf read positions, and the
  // output log (moved, not copied). The old executor is then destroyed,
  // which returns every remaining component — the departing state — to
  // the arbiter.
  struct Carried {
    int old_idx = -1;
    std::string blob;
    std::vector<int64_t> offsets;
    std::unique_ptr<DeltaBuffer> contents;
  };
  std::map<int, Carried> carried;
  for (int i = 0; i < candidate->num_subplans(); ++i) {
    int j = carry[static_cast<size_t>(i)];
    if (j < 0) continue;
    Carried c;
    c.old_idx = j;
    recovery::CheckpointWriter w;
    ISHARE_RETURN_NOT_OK(exec_->subplan_executor(j)->Snapshot(&w));
    c.blob = w.Take();
    c.offsets = exec_->subplan_executor(j)->LeafOffsets();
    c.contents = std::make_unique<DeltaBuffer>();
    c.contents->AdoptContentsFrom(exec_->subplan_output(j));
    carried.emplace(i, std::move(c));
  }
  std::vector<int> old_paces = paces_;
  int64_t steps = exec_->completed_steps();
  int64_t n_carried = static_cast<int64_t>(carried.size());
  int64_t n_rebuilt = candidate->num_subplans() - n_carried;
  stats_.subplans_carried += n_carried;
  stats_.subplans_rebuilt += n_rebuilt;
  PublishCounter("churn.subplans_carried", static_cast<double>(n_carried));
  PublishCounter("churn.subplans_rebuilt", static_cast<double>(n_rebuilt));

  ISHARE_RETURN_NOT_OK(RebuildEngine(std::move(candidate)));

  // Install carried state: adopt every log first (leaf-offset validation
  // needs the child logs present), then operator state + read positions.
  for (auto& [i, c] : carried) {
    exec_->subplan_output(i)->AdoptContentsFrom(c.contents.get());
  }
  for (auto& [i, c] : carried) {
    recovery::CheckpointReader r(c.blob);
    ISHARE_RETURN_NOT_OK(exec_->subplan_executor(i)->Restore(&r));
    ISHARE_RETURN_NOT_OK(exec_->subplan_executor(i)->SetLeafOffsets(c.offsets));
  }

  // Localized pace re-derivation: warm-start from the carried paces, let
  // the optimizer place the rebuilt/new subplans, then pin carried
  // subplans back to their old pace and repair the parent<=child pacing
  // invariant (children-first, so child paces are final before parents).
  PaceConfig warm(static_cast<size_t>(graph_->num_subplans()), max_pace_);
  for (const auto& [i, c] : carried) {
    if (c.old_idx < static_cast<int>(old_paces.size())) {
      warm[static_cast<size_t>(i)] = old_paces[static_cast<size_t>(c.old_idx)];
    }
  }
  for (int s : graph_->TopoChildrenFirst()) {
    for (int ch : graph_->subplan(s).children) {
      warm[static_cast<size_t>(s)] =
          std::min(warm[static_cast<size_t>(s)], warm[static_cast<size_t>(ch)]);
    }
  }
  PaceOptimizer optimizer(estimator_.get(), ConstraintVector(), opts_.opt);
  PaceSearchResult search = optimizer.FindPaceConfiguration(&warm);
  paces_ = search.paces;
  for (const auto& [i, c] : carried) {
    paces_[static_cast<size_t>(i)] = warm[static_cast<size_t>(i)];
  }
  for (int s : graph_->TopoChildrenFirst()) {
    for (int ch : graph_->subplan(s).children) {
      paces_[static_cast<size_t>(s)] = std::min(
          paces_[static_cast<size_t>(s)], paces_[static_cast<size_t>(ch)]);
    }
  }

  if (budget != nullptr) {
    int64_t reclaimed = std::max<int64_t>(0, used_before - budget->used());
    stats_.reclaimed_bytes += reclaimed;
    PublishCounter("churn.reclaimed_bytes", static_cast<double>(reclaimed));
  }
  ++epoch_;
  ++stats_.epochs;
  PublishCounter("churn.epochs", 1);
  return exec_->BeginWindowAt(paces_, f, steps);
}

QuerySet ChurnRuntime::live_queries() const {
  QuerySet out;
  for (const auto& [id, lq] : live_) out.Add(id);
  return out;
}

bool ChurnRuntime::IsUnshared(QueryId q) const {
  auto it = live_.find(q);
  return it != live_.end() && it->second.unshared;
}

Result<std::unordered_map<Row, int64_t, RowHasher>> ChurnRuntime::LiveResult(
    QueryId q) const {
  if (exec_ == nullptr) {
    return Status::InvalidArgument("no window: call BeginWindow");
  }
  if (live_.count(q) == 0) {
    return Status::NotFound("query q" + std::to_string(q) + " is not live");
  }
  return MaterializeResult(*exec_->query_output(q), q);
}

Result<std::unordered_map<Row, int64_t, RowHasher>>
ChurnRuntime::DrainedResult(QueryId q) const {
  auto it = drained_.find(q);
  if (it == drained_.end()) {
    return Status::NotFound("query q" + std::to_string(q) +
                            " has no drained result (never departed)");
  }
  return it->second;
}

std::vector<QueryId> ChurnRuntime::departed_queries() const {
  std::vector<QueryId> out;
  out.reserve(drained_.size());
  for (const auto& [q, m] : drained_) out.push_back(q);
  std::sort(out.begin(), out.end());
  return out;
}

Fraction ChurnRuntime::DepartureFraction(QueryId q) const {
  auto it = departure_points_.find(q);
  return it == departure_points_.end() ? Fraction{0, 1} : it->second;
}

Status ChurnRuntime::Snapshot(recovery::CheckpointWriter* w) const {
  if (exec_ == nullptr) {
    return Status::InvalidArgument("nothing to snapshot: no window begun");
  }
  // Epoch tag + membership first: Restore must rebuild the exact epoch
  // graph before it can restore the executor into it.
  w->I64(epoch_);
  w->I64(next_id_);
  w->I64(max_pace_);
  w->U64(live_.size());
  for (const auto& [id, lq] : live_) {
    w->I64(id);
    w->F64(lq.constraint);
    w->I64(lq.unshared ? 1 : 0);
  }
  w->U64(pending_reg_.size());
  for (const PendingReg& p : pending_reg_) {
    w->I64(p.id);
    w->F64(p.constraint);
    w->I64(p.unshared ? 1 : 0);
    w->I64(p.attempts);
    w->I64(p.retry_at);
  }
  w->U64(pending_dereg_.size());
  for (QueryId q : pending_dereg_) w->I64(q);
  w->U64(paces_.size());
  for (int p : paces_) w->I64(p);
  std::vector<QueryId> departed;
  departed.reserve(drained_.size());
  for (const auto& [q, m] : drained_) departed.push_back(q);
  std::sort(departed.begin(), departed.end());
  w->U64(departed.size());
  for (QueryId q : departed) {
    w->I64(q);
    Fraction fq = DepartureFraction(q);
    w->I64(fq.num);
    w->I64(fq.den);
    const auto& m = drained_.at(q);
    w->U64(m.size());
    for (const auto& [row, cnt] : m) {
      recovery::WriteRow(w, row);
      w->I64(cnt);
    }
  }
  w->I64(stats_.registrations);
  w->I64(stats_.deregistrations);
  w->I64(stats_.deferrals);
  w->I64(stats_.unshared_fallbacks);
  w->I64(stats_.epochs);
  w->I64(stats_.subplans_carried);
  w->I64(stats_.subplans_rebuilt);
  w->I64(stats_.reclaimed_bytes);
  w->F64(stats_.quiesce_work);
  return exec_->Snapshot(w);
}

Status ChurnRuntime::Restore(recovery::CheckpointReader* r) {
  // The max pace and the pace table warm-start the next epoch switch's
  // pace search, which aborts on a pace below 1: both are range-checked
  // before the cast to int.
  auto valid_pace = [](int64_t p) {
    return p >= 1 && p <= std::numeric_limits<int>::max();
  };
  epoch_ = r->I64();
  next_id_ = static_cast<QueryId>(r->I64());
  int64_t max_pace = r->I64();
  uint64_t nl = r->U64();
  if (!r->ok()) return r->status();
  if (!valid_pace(max_pace)) {
    r->Fail("churn checkpoint max pace " + std::to_string(max_pace) +
            " out of range");
    return r->status();
  }
  max_pace_ = static_cast<int>(max_pace);
  if (nl > r->remaining()) {
    r->Fail("churn membership count exceeds payload");
    return r->status();
  }
  live_.clear();
  for (uint64_t i = 0; i < nl && r->ok(); ++i) {
    QueryId id = static_cast<QueryId>(r->I64());
    double constraint = r->F64();
    bool unshared = r->I64() != 0;
    if (id < 0 || id >= QuerySet::kMaxQueryId) {
      r->Fail("churn checkpoint query id " + std::to_string(id) +
              " out of range");
      return r->status();
    }
    live_[id] = LiveQuery{constraint, unshared};
  }
  uint64_t npr = r->U64();
  if (npr > r->remaining()) {
    r->Fail("churn pending-registration count exceeds payload");
    return r->status();
  }
  pending_reg_.clear();
  for (uint64_t i = 0; i < npr && r->ok(); ++i) {
    int64_t id = r->I64();
    double constraint = r->F64();
    bool unshared = r->I64() != 0;
    int64_t attempts = r->I64();
    int64_t retry_at = r->I64();
    // Register's range rule: an id past it would abort the next epoch
    // switch inside QuerySet. An attempt count that is negative as an int
    // would shift the admission backoff by a negative amount.
    if (id < 0 || id >= QuerySet::kMaxQueryId) {
      r->Fail("churn checkpoint pending id " + std::to_string(id) +
              " out of range");
      return r->status();
    }
    if (attempts < 0 || attempts > std::numeric_limits<int>::max() ||
        retry_at < 0) {
      r->Fail("churn checkpoint pending registration q" +
              std::to_string(id) + " has a bad retry state (attempts " +
              std::to_string(attempts) + ", retry step " +
              std::to_string(retry_at) + ")");
      return r->status();
    }
    PendingReg p;
    p.id = static_cast<QueryId>(id);
    p.constraint = constraint;
    p.unshared = unshared;
    p.attempts = static_cast<int>(attempts);
    p.retry_at = retry_at;
    pending_reg_.push_back(p);
  }
  uint64_t npd = r->U64();
  if (npd > r->remaining()) {
    r->Fail("churn pending-deregistration count exceeds payload");
    return r->status();
  }
  pending_dereg_.clear();
  for (uint64_t i = 0; i < npd && r->ok(); ++i) {
    pending_dereg_.push_back(static_cast<QueryId>(r->I64()));
  }
  uint64_t np = r->U64();
  if (np > r->remaining()) {
    r->Fail("churn pace table exceeds payload");
    return r->status();
  }
  paces_.assign(np, 1);
  for (int& p : paces_) {
    int64_t pace = r->I64();
    if (!r->ok()) break;
    if (!valid_pace(pace)) {
      r->Fail("churn checkpoint pace " + std::to_string(pace) +
              " out of range");
      return r->status();
    }
    p = static_cast<int>(pace);
  }
  uint64_t nd = r->U64();
  if (nd > r->remaining()) {
    r->Fail("churn drained-result count exceeds payload");
    return r->status();
  }
  drained_.clear();
  departure_points_.clear();
  for (uint64_t i = 0; i < nd && r->ok(); ++i) {
    QueryId q = static_cast<QueryId>(r->I64());
    int64_t num = r->I64();
    int64_t den = r->I64();
    if (den <= 0 || num < 0 || num > den) {
      r->Fail("churn departure point invalid");
      return r->status();
    }
    departure_points_[q] = Fraction::Make(num, den);
    uint64_t nrows = r->U64();
    if (nrows > r->remaining()) {
      r->Fail("churn drained result exceeds payload");
      return r->status();
    }
    auto& m = drained_[q];
    for (uint64_t k = 0; k < nrows && r->ok(); ++k) {
      Row row = recovery::ReadRow(r);
      int64_t cnt = r->I64();
      m[std::move(row)] = cnt;
    }
  }
  stats_.registrations = r->I64();
  stats_.deregistrations = r->I64();
  stats_.deferrals = r->I64();
  stats_.unshared_fallbacks = r->I64();
  stats_.epochs = r->I64();
  stats_.subplans_carried = r->I64();
  stats_.subplans_rebuilt = r->I64();
  stats_.reclaimed_bytes = r->I64();
  stats_.quiesce_work = r->F64();
  if (!r->ok()) return r->status();
  if (live_.empty()) {
    r->Fail("churn checkpoint has no live queries");
    return r->status();
  }
  // Rebuild the tagged epoch's graph deterministically (same membership,
  // same merge, same unshared flags), then restore the executor into it.
  std::vector<QueryPlan> plans = BuildPlans();
  auto g = std::make_unique<SubplanGraph>(SubplanGraph::Build(plans));
  Status st = g->Validate();
  if (!st.ok()) {
    r->Fail("churn checkpoint graph invalid: " + st.ToString());
    return r->status();
  }
  ISHARE_RETURN_NOT_OK(RebuildEngine(std::move(g)));
  st = ValidatePaceConfig(*graph_, paces_);
  if (!st.ok()) {
    r->Fail("churn pace table: " + st.ToString());
    return r->status();
  }
  return exec_->Restore(r);
}

}  // namespace churn
}  // namespace ishare
