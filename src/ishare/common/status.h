#ifndef ISHARE_COMMON_STATUS_H_
#define ISHARE_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "ishare/common/check.h"

namespace ishare {

// Error codes used across the library. We follow the RocksDB/Arrow idiom of
// returning Status objects instead of throwing exceptions across API
// boundaries.
//
// Retry taxonomy (DESIGN.md §8): every code is either *transient* —
// the operation may succeed if simply retried, nothing about the request
// was wrong (kUnavailable: an unreachable partition, a mid-failover
// buffer) — or *permanent* — retrying the identical operation cannot
// help (malformed requests, missing tables, corrupted checkpoints,
// logic errors). The recovery layer's retry policy keys off this split:
// transient errors get bounded exponential backoff, permanent errors
// propagate immediately and fail only the affected run.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kNotSupported,
  kInternal,
  // A dependency is temporarily unreachable; retrying may succeed.
  kUnavailable,
  // Stored state failed validation (torn write, checksum mismatch).
  kDataLoss,
  // A resource budget (memory, buffer capacity) is exhausted. This is
  // *backpressure*, not a fault: the operation will succeed once the
  // consumer drains or the flow controller sheds load. Deliberately not
  // transient — retrying in a tight loop with the storage-fault backoff
  // policy would burn the retry budget meant for kUnavailable faults
  // without making progress. Callers test IsRetryableBackpressure() and
  // route through the flow-control layer (defer/shed) instead.
  kResourceExhausted,
  // A shard runtime in a sharded group is crashed or stalled past its
  // slack (DESIGN.md §14). Deliberately NEITHER transient NOR
  // backpressure: blindly retrying the failing step cannot resurrect a
  // dead shard (and would burn the kUnavailable retry budget), and
  // routing it through the flow layer would shed tuples for a fault that
  // loses none. The correct reaction is *group-level* recovery — restore
  // every shard to the last consistent epoch — which the chaos
  // Supervisor's ClassifyFailure maps to Reaction::kDegrade via
  // IsShardFault(). See the classification table in DESIGN.md §14.
  kShardUnavailable,
};

// True for codes whose failures are worth retrying (see taxonomy above).
constexpr bool StatusCodeIsTransient(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

// A Status captures the success or failure of an operation. Cheap to copy in
// the OK case (no allocation), carries a message otherwise. Dropping one
// is a compile error (the build sets -Werror=unused-result).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status ShardUnavailable(std::string msg) {
    return Status(StatusCode::kShardUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  // True when the failure is worth retrying (see the taxonomy on
  // StatusCode). OK statuses are not transient: there is nothing to retry.
  bool IsTransient() const { return StatusCodeIsTransient(code_); }

  // True when the failure is backpressure from the flow-control layer:
  // the operation becomes admissible again once pressure drains, but a
  // blind retry loop is the wrong response (it cannot drain anything and
  // would consume the bounded retry budget reserved for transient storage
  // faults). Disjoint from IsTransient() by construction.
  bool IsRetryableBackpressure() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  // True when the failure is a shard-group fault (a crashed or
  // slack-exhausted shard). Disjoint from both IsTransient() and
  // IsRetryableBackpressure() by construction: the fix is group recovery
  // to a consistent epoch, not a step retry and not flow-control
  // deferral (DESIGN.md §14 classification table).
  bool IsShardFault() const {
    return code_ == StatusCode::kShardUnavailable;
  }

  // Human-readable rendering, e.g. "InvalidArgument: bad pace".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

// Result<T> is either a value or an error Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    CHECK(!std::get<Status>(payload_).ok())
        << "Result constructed from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  const T& value() const& {
    CHECK(ok()) << status().ToString();
    return std::get<T>(payload_);
  }
  T& value() & {
    CHECK(ok()) << status().ToString();
    return std::get<T>(payload_);
  }
  T&& value() && {
    CHECK(ok()) << status().ToString();
    return std::move(std::get<T>(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

// Propagates a non-OK Status out of the enclosing function.
#define ISHARE_RETURN_NOT_OK(expr)             \
  do {                                         \
    ::ishare::Status _st = (expr);             \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define ISHARE_CONCAT_IMPL_(a, b) a##b
#define ISHARE_CONCAT_(a, b) ISHARE_CONCAT_IMPL_(a, b)

#define ISHARE_ASSIGN_OR_RETURN(lhs, expr) \
  ISHARE_ASSIGN_OR_RETURN_IMPL_(ISHARE_CONCAT_(_res_, __LINE__), lhs, expr)

#define ISHARE_ASSIGN_OR_RETURN_IMPL_(res, lhs, expr) \
  auto res = (expr);                                  \
  if (!res.ok()) return res.status();                 \
  lhs = std::move(res).value();

}  // namespace ishare

#endif  // ISHARE_COMMON_STATUS_H_
