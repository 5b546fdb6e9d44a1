#ifndef ISHARE_STORAGE_DELTA_BUFFER_H_
#define ISHARE_STORAGE_DELTA_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ishare/common/check.h"
#include "ishare/common/status.h"
#include "ishare/flow/memory_budget.h"
#include "ishare/obs/obs.h"
#include "ishare/recovery/serializer.h"
#include "ishare/storage/delta.h"
#include "ishare/types/schema.h"

namespace ishare {

// Append-only log of delta tuples with independent consumer offsets.
//
// This replaces the Kafka topics of the paper's prototype: a subplan whose
// root has two or more parent subplans materializes its output here, and
// each parent pulls new tuples at its own pace (Sec. 2.2). Base relations
// are buffers of the same kind fed by the StreamSource.
//
// Offsets are *logical* positions in the append order and never move
// backwards. The physical log, however, is bounded: TrimConsumed()
// reclaims the prefix every registered consumer has already read,
// rebasing physical indices by `trimmed()`. size() keeps counting all
// tuples ever appended, so offset arithmetic is trim-oblivious; log()
// exposes only the retained suffix, and any DeltaSpan handed out earlier
// is invalidated by a trim just as by an append or reset.
//
// Runtime-facing entry points (the Consume* family and the offset
// accessors) are part of the recoverable error spine: malformed-but-
// possible inputs (a bad consumer id, a negative limit) and injected
// storage faults surface as Status instead of aborting, so a shared
// executor can fail one run without taking down co-scheduled queries.
// Faults injected with a finite `times` are *transient* (kUnavailable by
// convention) and auto-disarm, which is what the executors' retry/backoff
// path (DESIGN.md §8) recovers from.
//
// Threading contract (single-writer / multi-reader, DESIGN.md §10):
//  - Exactly one producer thread may Append/AppendBatch at a time.
//  - While the producer appends, distinct consumer threads may
//    concurrently call size(), Pending(c) and ConsumerOffset(c) for
//    their own ids: the logical size is published through an atomic with
//    release/acquire ordering, and the producer never touches offsets_.
//    A Pending() observed mid-append is merely conservative (it may
//    lag the in-flight batch; it never reads torn state).
//  - Everything else — Consume*, TrimConsumed, Reset, Restore,
//    registration, limit/budget changes — requires external ordering
//    (the scheduler's wave barriers provide it: a consumer only drains a
//    buffer after its producer's wave completed). Two threads acting as
//    the *same* consumer must also be externally ordered.
class DeltaBuffer {
 public:
  DeltaBuffer() = default;
  explicit DeltaBuffer(Schema schema, std::string name = "")
      : schema_(std::move(schema)), name_(std::move(name)) {}

  // A destroyed buffer must not leave stale bytes charged in the arbiter:
  // online churn (DESIGN.md §13) tears buffers down mid-session, and a
  // leaked component would double-count the epoch's bytes forever.
  ~DeltaBuffer() { DetachBudget(); }

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Total tuples ever appended (logical size; includes trimmed tuples).
  // Safe to call from a consumer thread while the producer is appending:
  // reads the atomically-published size, never log_.size() itself (that
  // read would race with the producer's push_back and tear under tsan —
  // pinned by storage_test's ConcurrentPendingDuringAppend).
  int64_t size() const {
    return logical_size_.load(std::memory_order_acquire);
  }
  // Tuples physically retained / already reclaimed by TrimConsumed().
  int64_t retained_size() const { return static_cast<int64_t>(log_.size()); }
  int64_t trimmed() const { return base_offset_; }
  // Approximate bytes held by the retained log (see ApproxDeltaBytes).
  int64_t retained_bytes() const { return retained_bytes_; }

  void Append(DeltaTuple t) {
    retained_bytes_ += ApproxDeltaBytes(t);
    log_.push_back(std::move(t));
    PublishSize();
    PublishBytes();
  }
  // Appends `batch` (moved in when the caller passes an rvalue) and
  // returns the bytes it added (see ApproxDeltaBytes). The tuples move
  // into the log rather than the log adopting `batch`'s storage, which
  // may carry the slack of a batch filtered in place.
  int64_t AppendBatch(DeltaBatch batch) {
    int64_t bytes = 0;
    for (const DeltaTuple& t : batch) bytes += ApproxDeltaBytes(t);
    retained_bytes_ += bytes;
    log_.insert(log_.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
    PublishSize();
    PublishBytes();
    return bytes;
  }

  // Registers a new consumer starting at offset 0; returns its id.
  int RegisterConsumer() {
    offsets_.push_back(0);
    return static_cast<int>(offsets_.size()) - 1;
  }
  int num_consumers() const { return static_cast<int>(offsets_.size()); }

  // Drops every consumer registration (offsets, not data). Used at a churn
  // epoch switch: the new executor re-registers its own consumers, and the
  // buffer must carry exactly the live executor's registrations so that a
  // later RestoreOffsets() sees a matching count (DESIGN.md §13).
  void ClearConsumers() { offsets_.clear(); }

  // Repositions one consumer; the offset must lie in the retained range.
  // Carried subplans use this to resume a surviving buffer at the exact
  // logical position the pre-churn consumer had reached.
  Status SetConsumerOffset(int consumer, int64_t off) {
    ISHARE_RETURN_NOT_OK(CheckConsumerId(consumer));
    if (off < base_offset_ || off > size()) {
      return Status::InvalidArgument(
          "consumer offset " + std::to_string(off) + " out of range [" +
          std::to_string(base_offset_) + ", " + std::to_string(size()) +
          "] on buffer '" + name_ + "'");
    }
    offsets_[consumer] = off;
    return Status::OK();
  }

  // Moves `other`'s log (contents, trim base, byte accounting) into this
  // buffer, leaving `other` empty. Consumer offsets are NOT adopted — the
  // receiving buffer keeps its own registrations. This is how a carried
  // subplan's materialized output survives an epoch switch without a copy.
  void AdoptContentsFrom(DeltaBuffer* other) {
    CHECK(other != nullptr);
    log_ = std::move(other->log_);
    base_offset_ = other->base_offset_;
    retained_bytes_ = other->retained_bytes_;
    other->log_.clear();
    other->base_offset_ = 0;
    other->retained_bytes_ = 0;
    other->PublishSize();
    other->PublishBytes();
    PublishSize();
    PublishBytes();
  }

  // Offset of `consumer`; InvalidArgument if the id is not registered.
  Result<int64_t> ConsumerOffset(int consumer) const {
    ISHARE_RETURN_NOT_OK(CheckConsumerId(consumer));
    return offsets_[consumer];
  }

  // Number of tuples the consumer has not read yet; InvalidArgument for a
  // bad id.
  Result<int64_t> Pending(int consumer) const {
    ISHARE_RETURN_NOT_OK(CheckConsumerId(consumer));
    return size() - offsets_[consumer];
  }

  // Reads all tuples newer than the consumer's offset and advances it.
  // The returned view aliases the log: it stays valid until the next
  // Append/AppendBatch/Reset/TrimConsumed and costs no allocation or copy.
  Result<DeltaSpan> ConsumeNew(int consumer) {
    return ConsumeUpTo(consumer, size());
  }

  // Reads up to `limit` new tuples and advances the offset accordingly.
  Result<DeltaSpan> ConsumeUpTo(int consumer, int64_t limit) {
    ISHARE_RETURN_NOT_OK(ConsumeCheck(consumer));
    if (limit < 0) {
      return Status::InvalidArgument("negative consume limit " +
                                     std::to_string(limit) + " on buffer '" +
                                     name_ + "'");
    }
    int64_t from = offsets_[consumer];
    int64_t to = std::min(size(), from + limit);
    offsets_[consumer] = to;
    // A registered consumer's offset can never fall behind the trim point:
    // TrimConsumed only reclaims below the minimum offset.
    CHECK(from >= base_offset_)
        << "consumer offset " << from << " below trim point " << base_offset_
        << " on buffer '" << name_ << "'";
    return DeltaSpan(log_.data() + (from - base_offset_),
                     static_cast<size_t>(to - from));
  }

  // The retained suffix of the log: physical index i holds the tuple at
  // logical offset trimmed() + i.
  const std::vector<DeltaTuple>& log() const { return log_; }

  // ---- Bounded retention (DESIGN.md §9) ---------------------------------

  // Reclaims the prefix of the log that every registered consumer has
  // already read, rebasing physical indices. A buffer with no consumers
  // never trims (nothing proves the data was seen — query roots are read
  // out-of-band by MaterializeResult). Returns the number of tuples
  // reclaimed.
  int64_t TrimConsumed() {
    if (offsets_.empty() || log_.empty()) return 0;
    int64_t min_off = offsets_[0];
    for (int64_t off : offsets_) min_off = std::min(min_off, off);
    int64_t n = min_off - base_offset_;
    if (n <= 0) return 0;
    for (int64_t i = 0; i < n; ++i) {
      retained_bytes_ -= ApproxDeltaBytes(log_[static_cast<size_t>(i)]);
    }
    log_.erase(log_.begin(), log_.begin() + n);
    base_offset_ = min_off;
    PublishSize();
    obs::Registry().GetCounter("flow.trim.count").Add(1);
    obs::Registry().GetCounter("flow.trim.tuples").Add(static_cast<double>(n));
    PublishBytes();
    return n;
  }

  // Retention limit of a bounded buffer (DESIGN.md §9); 0 = unlimited.
  void set_soft_limit_bytes(int64_t bytes) {
    soft_limit_bytes_ = bytes;
    PublishBytes();
  }

  // Backpressure signal: kResourceExhausted while the buffer sits above
  // its high watermark (with hysteresis down to the low watermark; see
  // PublishBytes). The producer side is expected to route this to the
  // shedding policy, not to a retry loop — see
  // Status::IsRetryableBackpressure().
  Status AdmitStatus() const {
    if (!backpressured_) return Status::OK();
    return Status::ResourceExhausted(
        "buffer '" + name_ + "' over high watermark: " +
        std::to_string(retained_bytes_) + " bytes retained, soft limit " +
        std::to_string(soft_limit_bytes_));
  }

  // Registers this buffer with the memory arbiter under "buf:<name>" and
  // starts publishing retained bytes to it.
  void AttachBudget(flow::MemoryBudget* budget) {
    budget_ = budget;
    budget_component_ =
        budget_ == nullptr ? -1 : budget_->Register("buf:" + name_);
    PublishBytes();
  }

  // Zeros this buffer's component in the arbiter and stops publishing.
  // The component slot itself is retired (components are append-only by
  // design); what matters is that its contribution returns to zero.
  void DetachBudget() {
    if (budget_ != nullptr) budget_->Set(budget_component_, 0);
    budget_ = nullptr;
    budget_component_ = -1;
  }

  // Drops all tuples, resets every consumer offset to zero, AND disarms
  // any injected fault: a reset buffer is fresh in every respect. (A
  // buffer that still errored on consume after Reset() was a trap for
  // harness reuse; tests pin the new contract.)
  void Reset() {
    log_.clear();
    base_offset_ = 0;
    retained_bytes_ = 0;
    backpressured_ = false;
    std::fill(offsets_.begin(), offsets_.end(), 0);
    ClearFault();
    PublishSize();
    PublishBytes();
  }

  // Fault injection: subsequent consumes return `st` until ClearFault().
  // With `times >= 0`, only the next `times` consumes fail, then the fault
  // disarms on its own — that models a transient outage (pass a
  // Status::Unavailable so retry policies classify it correctly). The
  // default `times = -1` keeps the fault armed forever (a poisoned
  // partition), matching the original single-argument behavior.
  void InjectFault(Status st, int64_t times = -1) {
    CHECK(!st.ok()) << "injected fault must be an error";
    if (times == 0) {  // zero failures requested: nothing to arm
      ClearFault();
      return;
    }
    fault_ = std::move(st);
    fault_remaining_ = times;
  }
  void ClearFault() {
    fault_ = Status::OK();
    fault_remaining_ = -1;
  }
  bool HasFault() const { return !fault_.ok(); }

  // ---- Checkpoint support (DESIGN.md §8) --------------------------------

  // Full state: trim base + retained log contents + consumer offsets.
  // Schema/name/faults are construction-time or test-only state and are
  // deliberately excluded — recovery rebuilds buffers from the same plan,
  // then restores into them. Limits and budget attachment are likewise
  // reapplied by the executor that owns the buffer. (The base offset made
  // this layout kCheckpointFormatVersion 2.)
  void Snapshot(recovery::CheckpointWriter* w) const {
    w->I64(base_offset_);
    w->U64(log_.size());
    for (const DeltaTuple& t : log_) {
      recovery::WriteRow(w, t.row);
      recovery::WriteQuerySet(w, t.qset);
      w->I64(t.weight);
    }
    SnapshotOffsets(w);
  }

  Status Restore(recovery::CheckpointReader* r) {
    int64_t base = r->I64();
    uint64_t n = r->U64();
    if (!r->ok()) return r->status();
    if (base < 0) {
      r->Fail("negative trim base " + std::to_string(base) + " on buffer '" +
              name_ + "'");
      return r->status();
    }
    if (n > r->remaining()) {
      r->Fail("delta log length " + std::to_string(n) + " exceeds payload");
      return r->status();
    }
    base_offset_ = base;
    log_.clear();
    log_.reserve(n);
    retained_bytes_ = 0;
    for (uint64_t i = 0; i < n && r->ok(); ++i) {
      DeltaTuple t;
      t.row = recovery::ReadRow(r);
      t.qset = recovery::ReadQuerySet(r);
      t.weight = static_cast<int32_t>(r->I64());
      retained_bytes_ += ApproxDeltaBytes(t);
      log_.push_back(std::move(t));
    }
    PublishSize();
    PublishBytes();
    return RestoreOffsets(r);
  }

  // Offsets only. Used for base-relation buffers whose log is regenerated
  // deterministically by replaying the StreamSource to the checkpointed
  // fraction; persisting just the read positions keeps checkpoints small.
  void SnapshotOffsets(recovery::CheckpointWriter* w) const {
    w->U64(offsets_.size());
    for (int64_t off : offsets_) w->I64(off);
  }

  Status RestoreOffsets(recovery::CheckpointReader* r) {
    uint64_t n = r->U64();
    if (!r->ok()) return r->status();
    if (n != offsets_.size()) {
      r->Fail("checkpoint has " + std::to_string(n) +
              " consumer offsets but buffer '" + name_ + "' registered " +
              std::to_string(offsets_.size()));
      return r->status();
    }
    for (size_t i = 0; i < offsets_.size(); ++i) {
      int64_t off = r->I64();
      // Offsets are logical: the valid range starts at the trim point, not
      // zero, because tuples below it no longer exist to be re-read.
      if (off < base_offset_ || off > size()) {
        r->Fail("consumer offset " + std::to_string(off) + " out of range [" +
                std::to_string(base_offset_) + ", " + std::to_string(size()) +
                "] on buffer '" + name_ + "'");
        return r->status();
      }
      offsets_[i] = off;
    }
    return r->status();
  }

 private:
  Status CheckConsumerId(int consumer) const {
    if (consumer < 0 || consumer >= num_consumers()) {
      return Status::InvalidArgument(
          "unknown consumer id " + std::to_string(consumer) + " on buffer '" +
          name_ + "' (" + std::to_string(num_consumers()) + " registered)");
    }
    return Status::OK();
  }

  Status ConsumeCheck(int consumer) {
    if (!fault_.ok()) {
      Status out = fault_;
      if (fault_remaining_ > 0 && --fault_remaining_ == 0) ClearFault();
      return out;
    }
    return CheckConsumerId(consumer);
  }

  // Publishes the logical size for concurrent readers (threading contract
  // above). Called after every mutation that changes base_offset_ or
  // log_'s length; TrimConsumed leaves the logical size unchanged
  // (base_offset_ absorbs the erased prefix) but republishes anyway for
  // uniformity.
  void PublishSize() {
    logical_size_.store(base_offset_ + static_cast<int64_t>(log_.size()),
                        std::memory_order_release);
  }

  // Re-evaluates the watermark state and pushes retained bytes to the
  // attached budget. Called after every mutation of the retained log.
  // The watermarks give the backpressure signal hysteresis: AdmitStatus()
  // starts refusing once retained bytes reach kHighWatermark × the soft
  // limit and keeps refusing until they drain to kLowWatermark × it, so a
  // buffer hovering at the limit does not flap between admit and refuse.
  void PublishBytes() {
    constexpr double kHighWatermark = 1.0;
    constexpr double kLowWatermark = 0.5;
    if (soft_limit_bytes_ > 0) {
      double soft = static_cast<double>(soft_limit_bytes_);
      double bytes = static_cast<double>(retained_bytes_);
      if (!backpressured_ && bytes >= kHighWatermark * soft) {
        backpressured_ = true;
        obs::Registry().GetCounter("flow.backpressure.buffer_events").Add(1);
      } else if (backpressured_ && bytes <= kLowWatermark * soft) {
        backpressured_ = false;
      }
    } else {
      backpressured_ = false;
    }
    if (budget_ != nullptr) budget_->Set(budget_component_, retained_bytes_);
  }

  Schema schema_;
  std::string name_;
  std::vector<DeltaTuple> log_;
  std::vector<int64_t> offsets_;
  // Published copy of base_offset_ + log_.size(); the only field a
  // concurrent reader touches besides its own offsets_ slot.
  std::atomic<int64_t> logical_size_{0};
  int64_t base_offset_ = 0;     // logical offset of log_[0]
  int64_t retained_bytes_ = 0;  // ApproxDeltaBytes sum over log_
  int64_t soft_limit_bytes_ = 0;
  bool backpressured_ = false;
  flow::MemoryBudget* budget_ = nullptr;
  int budget_component_ = -1;
  Status fault_;
  int64_t fault_remaining_ = -1;
};

}  // namespace ishare

#endif  // ISHARE_STORAGE_DELTA_BUFFER_H_
