#include "ishare/exec/subplan_exec.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"
#include "ishare/recovery/retry.h"

namespace ishare {

namespace {

// Moves `more` onto the end of `into`; takes the whole vector when `into`
// is still empty (the single-input operators' only contribution).
void AppendMoved(DeltaBatch* into, DeltaBatch more) {
  if (into->empty()) {
    *into = std::move(more);
    return;
  }
  into->insert(into->end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
}

}  // namespace

SubplanExecutor::SubplanExecutor(
    const Subplan& sp, StreamSource* source,
    const std::vector<std::unique_ptr<DeltaBuffer>>& buffers,
    DeltaBuffer* output, const ExecOptions& opts)
    : output_(output), opts_(opts), source_(source), buffers_(buffers) {
  CHECK(sp.root != nullptr);
  CHECK(output != nullptr);
  root_ = BuildTree(sp.root);
  // Handles resolved once here so RunExecution() pays only atomic adds.
  // The per-instance series is keyed by the output buffer's name
  // ("subplan_<i>"), giving the per-subplan work counters of the JSON
  // export; instances recur across runs of the same graph and accumulate.
  obs::MetricsRegistry& reg = obs::Registry();
  exec_counter_ = &reg.GetCounter("exec.subplan.executions");
  work_counter_ = &reg.GetCounter("exec.subplan.work");
  tuples_in_counter_ = &reg.GetCounter("exec.subplan.tuples_in");
  tuples_out_counter_ = &reg.GetCounter("exec.subplan.tuples_out");
  subplan_work_counter_ =
      &reg.GetCounter("exec.subplan.work#" + output->name());
  if (opts_.flow.budget != nullptr) {
    state_component_ = opts_.flow.budget->Register("state:" + output->name());
  }
}

SubplanExecutor::~SubplanExecutor() {
  if (state_component_ >= 0 && opts_.flow.budget != nullptr) {
    opts_.flow.budget->Set(state_component_, 0);
  }
}

SubplanExecutor::OpNode SubplanExecutor::BuildTree(const PlanNodePtr& node) {
  OpNode n;
  n.op = CreatePhysOp(node.get(), opts_);
  if (node->kind == PlanKind::kScan || node->kind == PlanKind::kSubplanInput) {
    // CreatePhysOp builds ScanOp / SubplanInputOp for exactly these kinds.
    n.leaf = static_cast<LeafOp*>(n.op.get());
  }
  if (node->kind == PlanKind::kScan) {
    n.input_buffer = source_->buffer(node->table_name);
    if (n.input_buffer == nullptr) {
      init_status_ = Status::NotFound("scan table '" + node->table_name +
                                      "' not registered in the stream source");
      return n;
    }
    n.consumer_id = n.input_buffer->RegisterConsumer();
    return n;
  }
  if (node->kind == PlanKind::kSubplanInput) {
    if (node->input_subplan < 0 ||
        node->input_subplan >= static_cast<int>(buffers_.size()) ||
        buffers_[node->input_subplan] == nullptr) {
      init_status_ = Status::Internal(
          "child subplan buffer " + std::to_string(node->input_subplan) +
          " missing");
      return n;
    }
    n.input_buffer = buffers_[node->input_subplan].get();
    n.consumer_id = n.input_buffer->RegisterConsumer();
    return n;
  }
  n.children.reserve(node->children.size());
  for (const PlanNodePtr& c : node->children) {
    n.children.push_back(BuildTree(c));
  }
  return n;
}

// Drains the leaf's buffer, retrying transient faults (an unreachable
// partition mid-failover) with deterministic virtual backoff. Permanent
// faults fail the run on the first attempt, preserving fail-soft isolation
// between co-scheduled queries.
Result<DeltaSpan> SubplanExecutor::ConsumeLeafWithRetry(OpNode& n) {
  DeltaSpan span;
  int attempts = 0;
  double backoff = 0;
  Status st = recovery::RetryTransient(
      [&]() -> Status {
        ISHARE_ASSIGN_OR_RETURN(span,
                                n.input_buffer->ConsumeNew(n.consumer_id));
        return Status::OK();
      },
      &attempts, &backoff);
  // A success after retries or an exhausted transient is published; a
  // permanent error is not.
  if (st.ok() ? attempts > 1 : st.IsTransient()) {
    obs::MetricsRegistry& reg = obs::Registry();
    reg.GetCounter("recovery.retry.attempts").Add(attempts - 1);
    reg.GetCounter(st.ok() ? "recovery.retry.success"
                           : "recovery.retry.exhausted")
        .Add(1);
    reg.GetCounter("recovery.retry.backoff_seconds").Add(backoff);
  }
  ISHARE_RETURN_NOT_OK(st);
  return span;
}

Result<DeltaBatch> SubplanExecutor::Pump(OpNode& n, int64_t* tuples_in) {
  if (n.input_buffer != nullptr) {
    ISHARE_ASSIGN_OR_RETURN(DeltaSpan raw, ConsumeLeafWithRetry(n));
    if (raw.empty()) return DeltaBatch{};
    *tuples_in += static_cast<int64_t>(raw.size());
    return n.leaf->Read(raw);  // the one copy out of the shared buffer
  }
  DeltaBatch collected;
  for (size_t i = 0; i < n.children.size(); ++i) {
    ISHARE_ASSIGN_OR_RETURN(DeltaBatch b, Pump(n.children[i], tuples_in));
    if (b.empty()) continue;
    AppendMoved(&collected, n.op->Process(static_cast<int>(i), std::move(b)));
  }
  AppendMoved(&collected, n.op->EndExecution());
  return collected;
}

double SubplanExecutor::TotalOpWork(const OpNode& n) const {
  double w = n.op->work().Total();
  for (const OpNode& c : n.children) w += TotalOpWork(c);
  return w;
}

void SubplanExecutor::CollectWork(const OpNode& n,
                                  std::vector<OpWork>* out) const {
  out->push_back(n.op->work());
  for (const OpNode& c : n.children) CollectWork(c, out);
}

std::vector<OpWork> SubplanExecutor::OpWorkBreakdown() const {
  std::vector<OpWork> out;
  CollectWork(root_, &out);
  return out;
}

void SubplanExecutor::CollectPending(const OpNode& n, int64_t* out) const {
  if (n.input_buffer != nullptr) {
    Result<int64_t> p = n.input_buffer->Pending(n.consumer_id);
    // Consumer ids were registered by BuildTree, so a failure here would
    // be a programming error; treat it as "no pending input" rather than
    // crash a monitoring path.
    if (p.ok() && *p > 0) *out += *p;
    return;
  }
  for (const OpNode& c : n.children) CollectPending(c, out);
}

int64_t SubplanExecutor::PendingInput() const {
  int64_t pending = 0;
  CollectPending(root_, &pending);
  return pending;
}

void SubplanExecutor::CollectConsumed(const OpNode& n, int64_t* out) const {
  if (n.input_buffer != nullptr) {
    Result<int64_t> off = n.input_buffer->ConsumerOffset(n.consumer_id);
    if (off.ok()) *out += *off;
    return;
  }
  for (const OpNode& c : n.children) CollectConsumed(c, out);
}

int64_t SubplanExecutor::ConsumedInput() const {
  int64_t consumed = 0;
  CollectConsumed(root_, &consumed);
  return consumed;
}

Status SubplanExecutor::DiscardNode(OpNode& n, int64_t* dropped) {
  if (n.input_buffer != nullptr) {
    ISHARE_ASSIGN_OR_RETURN(DeltaSpan raw, ConsumeLeafWithRetry(n));
    *dropped += static_cast<int64_t>(raw.size());
    return Status::OK();
  }
  for (OpNode& c : n.children) ISHARE_RETURN_NOT_OK(DiscardNode(c, dropped));
  return Status::OK();
}

void SubplanExecutor::NotifyInputDiscarded(OpNode& n) {
  n.op->OnInputDiscarded();
  for (OpNode& c : n.children) NotifyInputDiscarded(c);
}

Result<int64_t> SubplanExecutor::DiscardPendingInput() {
  ISHARE_RETURN_NOT_OK(init_status_);
  int64_t dropped = 0;
  ISHARE_RETURN_NOT_OK(DiscardNode(root_, &dropped));
  if (dropped > 0) {
    obs::Registry().GetCounter("flow.shed.dropped_tuples")
        .Add(static_cast<double>(dropped));
    // A shed gap permanently desynchronizes this subplan's consumed
    // offsets from any shared build stream; operators reading a shared
    // arrangement fork it so their stale readers stop pinning compaction.
    NotifyInputDiscarded(root_);
  }
  return dropped;
}

void SubplanExecutor::ApplySlackHint(OpNode& n, double slack) {
  n.op->SetSlackHint(slack);
  for (OpNode& c : n.children) ApplySlackHint(c, slack);
}

void SubplanExecutor::SetSlackHint(double slack) {
  ApplySlackHint(root_, slack);
}

int64_t SubplanExecutor::CollectStateBytes(const OpNode& n) const {
  int64_t bytes = n.op->StateBytes();
  for (const OpNode& c : n.children) bytes += CollectStateBytes(c);
  return bytes;
}

int64_t SubplanExecutor::StateBytes() const {
  return CollectStateBytes(root_);
}

void SubplanExecutor::PublishStateBytes() {
  if (state_component_ >= 0) {
    opts_.flow.budget->Set(state_component_, StateBytes());
  }
}

Result<ExecRecord> SubplanExecutor::ExecuteOnce() {
  ISHARE_RETURN_NOT_OK(init_status_);
  auto start = std::chrono::steady_clock::now();
  int64_t tuples_in = 0;
  ISHARE_ASSIGN_OR_RETURN(DeltaBatch out, Pump(root_, &tuples_in));
  const int64_t tuples_out = static_cast<int64_t>(out.size());
  last_output_bytes_ = output_->AppendBatch(std::move(out));
  auto end = std::chrono::steady_clock::now();

  ++executions_;
  last_input_consumed_ = tuples_in;
  PublishStateBytes();
  double total = TotalOpWork(root_);
  ExecRecord rec;
  rec.work = (total - last_total_work_) + opts_.startup_cost;
  rec.seconds = std::chrono::duration<double>(end - start).count();
  rec.tuples_in = tuples_in;
  rec.tuples_out = tuples_out;
  last_total_work_ = total;
  return rec;
}

void SubplanExecutor::PublishExecMetrics(const ExecRecord& rec) {
  exec_counter_->Add(1);
  work_counter_->Add(rec.work);
  tuples_in_counter_->Add(static_cast<double>(rec.tuples_in));
  tuples_out_counter_->Add(static_cast<double>(rec.tuples_out));
  subplan_work_counter_->Add(rec.work);
  obs::GlobalTracer().Record("exec.subplan.exec", rec.seconds);
}

Result<ExecRecord> SubplanExecutor::RunExecution() {
  ISHARE_ASSIGN_OR_RETURN(ExecRecord rec, ExecuteOnce());
  PublishExecMetrics(rec);
  return rec;
}

void SubplanExecutor::CollectLeafOffsets(const OpNode& n,
                                         std::vector<int64_t>* out) const {
  if (n.input_buffer != nullptr) {
    Result<int64_t> off = n.input_buffer->ConsumerOffset(n.consumer_id);
    out->push_back(off.ok() ? *off : 0);
    return;
  }
  for (const OpNode& c : n.children) CollectLeafOffsets(c, out);
}

std::vector<int64_t> SubplanExecutor::LeafOffsets() const {
  std::vector<int64_t> out;
  CollectLeafOffsets(root_, &out);
  return out;
}

Status SubplanExecutor::ApplyLeafOffsets(OpNode& n,
                                         const std::vector<int64_t>& offsets,
                                         size_t* next) {
  if (n.input_buffer != nullptr) {
    if (*next >= offsets.size()) {
      return Status::InvalidArgument(
          "leaf offset vector too short: tree has more than " +
          std::to_string(offsets.size()) + " leaves");
    }
    ISHARE_RETURN_NOT_OK(
        n.input_buffer->SetConsumerOffset(n.consumer_id, offsets[*next]));
    ++*next;
    return Status::OK();
  }
  for (OpNode& c : n.children) {
    ISHARE_RETURN_NOT_OK(ApplyLeafOffsets(c, offsets, next));
  }
  return Status::OK();
}

Status SubplanExecutor::SetLeafOffsets(const std::vector<int64_t>& offsets) {
  ISHARE_RETURN_NOT_OK(init_status_);
  size_t next = 0;
  ISHARE_RETURN_NOT_OK(ApplyLeafOffsets(root_, offsets, &next));
  if (next != offsets.size()) {
    return Status::InvalidArgument(
        "leaf offset vector has " + std::to_string(offsets.size()) +
        " entries but the tree has " + std::to_string(next) + " leaves");
  }
  return Status::OK();
}

Status SubplanExecutor::SnapshotOps(const OpNode& n,
                                    recovery::CheckpointWriter* w,
                                    bool canonical) const {
  ISHARE_RETURN_NOT_OK(canonical ? n.op->SnapshotCanonical(w)
                                 : n.op->Snapshot(w));
  for (const OpNode& c : n.children) {
    ISHARE_RETURN_NOT_OK(SnapshotOps(c, w, canonical));
  }
  return Status::OK();
}

Status SubplanExecutor::RestoreOps(OpNode& n, recovery::CheckpointReader* r) {
  ISHARE_RETURN_NOT_OK(n.op->Restore(r));
  for (OpNode& c : n.children) ISHARE_RETURN_NOT_OK(RestoreOps(c, r));
  return Status::OK();
}

Status SubplanExecutor::Snapshot(recovery::CheckpointWriter* w,
                                 bool canonical) const {
  ISHARE_RETURN_NOT_OK(init_status_);
  w->I64(executions_);
  w->I64(last_input_consumed_);
  w->I64(last_output_bytes_);
  w->F64(last_total_work_);
  return SnapshotOps(root_, w, canonical);
}

Status SubplanExecutor::Restore(recovery::CheckpointReader* r) {
  ISHARE_RETURN_NOT_OK(init_status_);
  executions_ = r->I64();
  last_input_consumed_ = r->I64();
  last_output_bytes_ = r->I64();
  last_total_work_ = r->F64();
  ISHARE_RETURN_NOT_OK(RestoreOps(root_, r));
  // The arbiter is not checkpointed (usage is a function of state): tell
  // it about the restored operator state so it converges immediately.
  PublishStateBytes();
  return r->status();
}

}  // namespace ishare
