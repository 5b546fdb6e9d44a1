// Unit tests for the recovery layer (DESIGN.md §8): serializer round
// trips, checkpoint frame validation (torn writes, checksum, version),
// store commit protocol, retry policy, checkpoint manager fallback, and
// the DeltaBuffer transient-fault/retry path through a real executor.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "ishare/exec/adaptive_executor.h"
#include "ishare/recovery/checkpoint.h"
#include "ishare/recovery/checkpoint_manager.h"
#include "ishare/recovery/checkpoint_store.h"
#include "ishare/recovery/retry.h"
#include "ishare/recovery/serializer.h"
#include "ishare/storage/delta_buffer.h"
#include "test_util.h"

namespace ishare {
namespace {

using recovery::CheckpointHeader;
using recovery::CheckpointManager;
using recovery::CheckpointManagerOptions;
using recovery::CheckpointReader;
using recovery::CheckpointWriter;
using recovery::Checkpointable;
using recovery::DecodeCheckpoint;
using recovery::DecodedCheckpoint;
using recovery::EncodeCheckpoint;
using recovery::FileCheckpointStore;
using recovery::MemoryCheckpointStore;
using recovery::RetryPolicy;
using recovery::RetryTransient;

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

TEST(SerializerTest, ScalarRoundTrip) {
  CheckpointWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(3.14159);
  w.Bool(true);
  w.Bool(false);
  w.Str("hello");
  w.Str("");

  CheckpointReader r(w.data());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Finish().ok()) << r.Finish().ToString();
}

TEST(SerializerTest, DoublesAreBitExact) {
  // Bit-exact recovery depends on doubles surviving serialization exactly:
  // NaN payloads, signed zero, infinities, denormals.
  const double cases[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  CheckpointWriter w;
  for (double d : cases) w.F64(d);
  CheckpointReader r(w.data());
  for (double d : cases) {
    double got = r.F64();
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &d, sizeof(d));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits);
  }
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerializerTest, ValueRowQuerySetRoundTrip) {
  Row row = {Value(int64_t{7}), Value(2.5), Value(std::string("abc"))};
  QuerySet qs = QuerySet::FromIds({0, 3, 17});

  CheckpointWriter w;
  recovery::WriteRow(&w, row);
  recovery::WriteQuerySet(&w, qs);

  CheckpointReader r(w.data());
  Row row2 = recovery::ReadRow(&r);
  QuerySet qs2 = recovery::ReadQuerySet(&r);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(row == row2);
  EXPECT_EQ(qs, qs2);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerializerTest, WideQuerySetRoundTrip) {
  // Sets beyond the inline 64-bit word round-trip through the
  // word-count-prefixed format, and spill-freeing removals round-trip to
  // values comparing equal to inline-only sets.
  for (const QuerySet& qs :
       {QuerySet(), QuerySet::FromIds({0, 63, 64, 130, 999}),
        QuerySet::Single(64), QuerySet::FirstN(1000),
        QuerySet::FromIds({1, 200}).Minus(QuerySet::Single(200))}) {
    CheckpointWriter w;
    recovery::WriteQuerySet(&w, qs);
    CheckpointReader r(w.data());
    QuerySet qs2 = recovery::ReadQuerySet(&r);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(qs, qs2) << qs.ToString();
    EXPECT_TRUE(r.Finish().ok());
  }
}

TEST(SerializerTest, QuerySetRejectsAbsurdWordCount) {
  CheckpointWriter w;
  w.U64(uint64_t{1} << 40);  // claims ~10^12 words
  CheckpointReader r(w.data());
  recovery::ReadQuerySet(&r);
  EXPECT_FALSE(r.ok());
}

TEST(SerializerTest, TruncationIsStickyDataLoss) {
  CheckpointWriter w;
  w.U64(123);
  w.Str("payload");
  std::string data = w.Take();
  CheckpointReader r(std::string_view(data).substr(0, data.size() - 3));
  EXPECT_EQ(r.U64(), 123u);
  r.Str();  // short read poisons the reader
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Every later read returns zero values without crashing.
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.Finish().ok());
}

TEST(SerializerTest, TrailingBytesFailFinish) {
  CheckpointWriter w;
  w.U64(1);
  w.U64(2);
  CheckpointReader r(w.data());
  EXPECT_EQ(r.U64(), 1u);
  EXPECT_TRUE(r.ok());
  Status st = r.Finish();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(SerializerTest, EncodeRowKeyOrdersDeterministically) {
  // Same row, same bytes; different rows, different bytes.
  Row a = {Value(int64_t{1}), Value(std::string("x"))};
  Row b = {Value(int64_t{2}), Value(std::string("x"))};
  EXPECT_EQ(recovery::EncodeRowKey(a), recovery::EncodeRowKey(a));
  EXPECT_NE(recovery::EncodeRowKey(a), recovery::EncodeRowKey(b));
}

// ---------------------------------------------------------------------------
// Checkpoint frame
// ---------------------------------------------------------------------------

std::string MakeFrame(int64_t epoch = 3, int64_t step = 6,
                      const std::string& payload = "some payload bytes") {
  CheckpointHeader h;
  h.epoch = epoch;
  h.step = step;
  return EncodeCheckpoint(h, payload);
}

TEST(CheckpointFrameTest, RoundTrip) {
  std::string frame = MakeFrame(3, 6, "xyz");
  Result<DecodedCheckpoint> d = DecodeCheckpoint(frame);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->header.version, recovery::kCheckpointFormatVersion);
  EXPECT_EQ(d->header.epoch, 3);
  EXPECT_EQ(d->header.step, 6);
  EXPECT_EQ(d->payload, "xyz");
}

TEST(CheckpointFrameTest, TruncatedFrameIsDataLoss) {
  std::string frame = MakeFrame();
  for (size_t cut : {size_t{0}, size_t{5}, size_t{20}, frame.size() - 1}) {
    Result<DecodedCheckpoint> d =
        DecodeCheckpoint(std::string_view(frame).substr(0, cut));
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(CheckpointFrameTest, BadMagicIsDataLoss) {
  std::string frame = MakeFrame();
  frame[0] = 'X';
  Result<DecodedCheckpoint> d = DecodeCheckpoint(frame);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointFrameTest, CorruptedPayloadByteIsDataLoss) {
  std::string frame = MakeFrame();
  frame[40] ^= 0x40;  // inside the payload
  Result<DecodedCheckpoint> d = DecodeCheckpoint(frame);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointFrameTest, FlippedVersionByteIsCorruptionNotVersionMismatch) {
  // The checksum covers the version field and is verified first: a bit
  // flip in the version must read as corruption, never as "future format".
  std::string frame = MakeFrame();
  frame[8] ^= 0x02;  // version u32 starts right after the 8-byte magic
  Result<DecodedCheckpoint> d = DecodeCheckpoint(frame);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointFrameTest, GenuineVersionMismatchIsNotSupported) {
  // An intact frame legitimately written by a newer format version (valid
  // checksum) is rejected as kNotSupported, distinct from corruption.
  CheckpointHeader h;
  h.version = recovery::kCheckpointFormatVersion + 1;
  std::string frame = EncodeCheckpoint(h, "future payload");
  Result<DecodedCheckpoint> d = DecodeCheckpoint(frame);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------------
// Checkpoint stores
// ---------------------------------------------------------------------------

TEST(MemoryStoreTest, StageCommitProtocol) {
  MemoryCheckpointStore store;
  ASSERT_TRUE(store.Stage(1, "frame-1").ok());
  // Staged-but-uncommitted frames are invisible to recovery.
  EXPECT_TRUE(store.CommittedEpochs().empty());
  EXPECT_EQ(store.Load(1).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Commit(1).ok());
  ASSERT_EQ(store.CommittedEpochs(), std::vector<int64_t>{1});
  EXPECT_EQ(store.Load(1).value(), "frame-1");
  EXPECT_EQ(store.staged_count(), 0);

  // Committing an epoch that was never staged is an error.
  EXPECT_EQ(store.Commit(9).code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Stage(2, "frame-2").ok());
  ASSERT_TRUE(store.DiscardStaged().ok());
  EXPECT_EQ(store.Commit(2).code(), StatusCode::kNotFound);

  ASSERT_TRUE(store.Drop(1).ok());
  EXPECT_TRUE(store.CommittedEpochs().empty());
}

TEST(MemoryStoreTest, InjectedWriteFaultIsTransient) {
  MemoryCheckpointStore store;
  store.InjectWriteFault(Status::Unavailable("store flake"), 2);
  EXPECT_EQ(store.Stage(1, "x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(store.Stage(1, "x").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(store.Stage(1, "x").ok());  // fault disarmed after 2 hits
  EXPECT_TRUE(store.Commit(1).ok());
}

TEST(FileStoreTest, CommitIsRenameAndStagedFilesAreIgnored) {
  std::string dir = ::testing::TempDir() + "/ishare_ckpt_test";
  std::filesystem::remove_all(dir);
  FileCheckpointStore store(dir);

  ASSERT_TRUE(store.Stage(4, "frame-4").ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/epoch_4.ckpt.staged"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/epoch_4.ckpt"));
  EXPECT_TRUE(store.CommittedEpochs().empty());

  ASSERT_TRUE(store.Commit(4).ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/epoch_4.ckpt.staged"));
  ASSERT_EQ(store.CommittedEpochs(), std::vector<int64_t>{4});
  EXPECT_EQ(store.Load(4).value(), "frame-4");

  // A second store over the same directory (a restarted process) sees the
  // committed epoch but not staged leftovers.
  ASSERT_TRUE(store.Stage(8, "frame-8").ok());
  FileCheckpointStore reopened(dir);
  EXPECT_EQ(reopened.CommittedEpochs(), std::vector<int64_t>{4});
  ASSERT_TRUE(reopened.DiscardStaged().ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/epoch_8.ckpt.staged"));

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ShouldRetryOnlyTransientWithinBudget) {
  RetryPolicy p;
  p.max_attempts = 3;
  Status transient = Status::Unavailable("flaky");
  Status permanent = Status::Internal("bug");
  EXPECT_TRUE(p.ShouldRetry(transient, 1));
  EXPECT_TRUE(p.ShouldRetry(transient, 2));
  EXPECT_FALSE(p.ShouldRetry(transient, 3));  // budget exhausted
  EXPECT_FALSE(p.ShouldRetry(permanent, 1));
  EXPECT_FALSE(p.ShouldRetry(Status::OK(), 1));
}

TEST(RetryPolicyTest, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy p;
  p.max_attempts = 16;
  double prev_base = 0;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    double b1 = p.BackoffSeconds(attempt);
    double b2 = p.BackoffSeconds(attempt);
    EXPECT_EQ(b1, b2) << "backoff must be a pure function of the attempt";
    EXPECT_GE(b1, p.base_backoff_seconds * (1.0 - p.jitter) * 0.999);
    EXPECT_LE(b1, p.max_backoff_seconds * (1.0 + p.jitter) * 1.001);
    // The un-jittered base doubles until the cap; spot-check monotone
    // growth of the envelope rather than each jittered sample.
    double base = std::min(
        p.base_backoff_seconds * std::pow(p.backoff_multiplier, attempt - 1),
        p.max_backoff_seconds);
    EXPECT_GE(base, prev_base);
    prev_base = base;
  }
}

TEST(RetryPolicyTest, DifferentSeedsGiveDifferentJitter) {
  RetryPolicy a, b;
  b.jitter_seed = a.jitter_seed + 1;
  bool any_different = false;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    if (a.BackoffSeconds(attempt) != b.BackoffSeconds(attempt)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryTransientTest, SucceedsAfterTransientFailures) {
  RetryPolicy p;
  p.max_attempts = 4;
  int calls = 0, attempts = 0;
  double backoff = 0;
  Status st = RetryTransient(
      p,
      [&calls]() {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::OK();
      },
      &attempts, &backoff);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(attempts, 3);
  EXPECT_GT(backoff, 0.0);
}

TEST(RetryTransientTest, PermanentErrorFailsImmediately) {
  RetryPolicy p;
  int calls = 0;
  Status st = RetryTransient(p, [&calls]() {
    ++calls;
    return Status::Internal("bug");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTransientTest, ExhaustedBudgetReturnsLastTransientError) {
  RetryPolicy p;
  p.max_attempts = 3;
  int calls = 0;
  Status st = RetryTransient(p, [&calls]() {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTransientTest, MaxAttemptBoundaryIsExact) {
  // The off-by-one contract pinned down: against a persistent transient
  // fault, RetryTransient makes exactly EffectiveMaxAttempts() calls and
  // accrues exactly one fewer backoffs (no backoff after the final try).
  for (int budget = 1; budget <= 5; ++budget) {
    RetryPolicy p;
    p.max_attempts = budget;
    int calls = 0, attempts = 0;
    double backoff = 0;
    Status st = RetryTransient(
        p,
        [&calls]() {
          ++calls;
          return Status::Unavailable("never up");
        },
        &attempts, &backoff);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << "budget " << budget;
    EXPECT_EQ(calls, budget);
    EXPECT_EQ(attempts, budget);
    double expected = 0;
    for (int a = 1; a < budget; ++a) expected += p.BackoffSeconds(a);
    EXPECT_DOUBLE_EQ(backoff, expected) << "budget " << budget;
  }
}

TEST(RetryTransientTest, NonPositiveBudgetStillMakesTheInitialAttempt) {
  // max_attempts < 1 must mean "one try, zero retries" — never "no call"
  // and never an unbounded loop.
  for (int budget : {0, -1, -100}) {
    RetryPolicy p;
    p.max_attempts = budget;
    EXPECT_EQ(p.EffectiveMaxAttempts(), 1);
    EXPECT_FALSE(p.ShouldRetry(Status::Unavailable("x"), 1));
    int calls = 0;
    double backoff = 0;
    Status st = RetryTransient(
        p,
        [&calls]() {
          ++calls;
          return Status::Unavailable("down");
        },
        nullptr, &backoff);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << "budget " << budget;
    EXPECT_EQ(calls, 1) << "budget " << budget;
    EXPECT_EQ(backoff, 0.0) << "no backoff after the only try";
    // BackoffSeconds clamps non-positive attempts instead of feeding a
    // zero exponent garbage.
    EXPECT_GT(p.BackoffSeconds(0), 0.0);
    EXPECT_EQ(p.BackoffSeconds(0), p.BackoffSeconds(1));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint manager
// ---------------------------------------------------------------------------

// Minimal Checkpointable: one int64 of state.
class CounterState : public Checkpointable {
 public:
  Status Snapshot(CheckpointWriter* w) const override {
    w->I64(value);
    return Status::OK();
  }
  Status Restore(CheckpointReader* r) override {
    value = r->I64();
    return r->status();
  }
  int64_t value = 0;
};

TEST(CheckpointManagerTest, PeriodicCadenceAndRecoverLatest) {
  MemoryCheckpointStore store;
  CheckpointManagerOptions opts;
  opts.epoch_len = 2;
  opts.overhead_budget = 0;  // strict cadence: every boundary checkpoints
  CheckpointManager mgr(&store, opts);

  CounterState state;
  for (int64_t step = 1; step <= 5; ++step) {
    state.value = step * 100;
    ASSERT_TRUE(mgr.OnStepComplete(step, state).ok());
  }
  // Steps 2 and 4 were epoch boundaries.
  EXPECT_EQ(store.CommittedEpochs(), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(mgr.stats().checkpoints, 2);
  EXPECT_GT(mgr.stats().checkpoint_bytes, 0);

  CounterState fresh;
  Result<int64_t> step = mgr.RecoverLatest(&fresh);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(*step, 4);
  EXPECT_EQ(fresh.value, 400);
  EXPECT_EQ(mgr.stats().restores, 1);
}

TEST(CheckpointManagerTest, RecoverLatestNotFoundOnEmptyStore) {
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  CounterState state;
  EXPECT_EQ(mgr.RecoverLatest(&state).status().code(), StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, StagedButUncommittedIsInvisible) {
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  CounterState state;
  state.value = 42;
  // The "crash between snapshot and commit" window.
  ASSERT_TRUE(mgr.Checkpoint(7, state, /*commit=*/false).ok());
  CounterState fresh;
  EXPECT_EQ(mgr.RecoverLatest(&fresh).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fresh.value, 0);
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToOlderEpoch) {
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  CounterState state;
  state.value = 100;
  ASSERT_TRUE(mgr.Checkpoint(2, state).ok());
  state.value = 200;
  ASSERT_TRUE(mgr.Checkpoint(4, state).ok());
  store.CorruptCommitted(4, "garbage that fails frame validation");

  CounterState fresh;
  Result<int64_t> step = mgr.RecoverLatest(&fresh);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(*step, 2);
  EXPECT_EQ(fresh.value, 100);
  EXPECT_EQ(mgr.stats().torn_discarded, 1);
  // The corrupt epoch was dropped from the store.
  EXPECT_EQ(store.CommittedEpochs(), std::vector<int64_t>{2});
}

// The budget cadence decisions run off an injected clock that advances a
// fixed tick per observation, so checkpoint "cost" (the interval between
// the manager's before/after reads) is a known constant.
TEST(CheckpointManagerTest, BudgetSkipsUnaffordableBoundaries) {
  MemoryCheckpointStore store;
  double now = 0;
  CheckpointManagerOptions opts;
  opts.epoch_len = 2;
  opts.overhead_budget = 0.05;
  opts.clock = [&now] {
    now += 0.010;
    return now;
  };
  CheckpointManager mgr(&store, opts);

  CounterState state;
  state.value = 1;
  // First due boundary always checkpoints (calibration) and records its
  // cost — one clock tick = 10ms.
  ASSERT_TRUE(mgr.OnStepComplete(2, state).ok());
  EXPECT_EQ(mgr.stats().checkpoints, 1);
  EXPECT_NEAR(mgr.last_checkpoint_cost(), 0.010, 1e-12);

  // Next boundary arrives almost immediately: 10ms of cost against a few
  // ms of elapsed execution blows the 5% budget, so it is skipped.
  state.value = 2;
  ASSERT_TRUE(mgr.OnStepComplete(4, state).ok());
  EXPECT_EQ(mgr.stats().checkpoints, 1);
  EXPECT_EQ(mgr.stats().budget_skipped, 1);
  EXPECT_EQ(store.CommittedEpochs(), std::vector<int64_t>{2});

  // After enough execution time (10ms cost / 5% budget = 200ms) the next
  // boundary is affordable again.
  now += 1.0;
  state.value = 3;
  ASSERT_TRUE(mgr.OnStepComplete(6, state).ok());
  EXPECT_EQ(mgr.stats().checkpoints, 2);
  EXPECT_EQ(store.CommittedEpochs(), (std::vector<int64_t>{2, 6}));

  // Recovery sees the affordable checkpoints only.
  CounterState fresh;
  Result<int64_t> step = mgr.RecoverLatest(&fresh);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_EQ(*step, 6);
  EXPECT_EQ(fresh.value, 3);
}

TEST(CheckpointManagerTest, ZeroBudgetMeansStrictCadence) {
  MemoryCheckpointStore store;
  double now = 0;
  CheckpointManagerOptions opts;
  opts.epoch_len = 1;
  opts.overhead_budget = 0;
  opts.clock = [&now] {
    now += 10.0;  // absurdly expensive checkpoints
    return now;
  };
  CheckpointManager mgr(&store, opts);
  CounterState state;
  for (int64_t step = 1; step <= 3; ++step) {
    state.value = step;
    ASSERT_TRUE(mgr.OnStepComplete(step, state).ok());
  }
  EXPECT_EQ(mgr.stats().checkpoints, 3);
  EXPECT_EQ(mgr.stats().budget_skipped, 0);
}

TEST(CheckpointManagerTest, TransientStoreFaultIsRetried) {
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  store.InjectWriteFault(Status::Unavailable("store flake"), 1);
  CounterState state;
  state.value = 7;
  ASSERT_TRUE(mgr.Checkpoint(1, state).ok());
  EXPECT_EQ(store.CommittedEpochs(), std::vector<int64_t>{1});
  EXPECT_GE(mgr.stats().store_retry_attempts, 1);
  EXPECT_GT(mgr.stats().store_retry_backoff_seconds, 0.0);
}

TEST(CheckpointManagerTest, PermanentStoreFaultFailsCheckpoint) {
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  store.InjectWriteFault(Status::Internal("disk on fire"), -1);
  CounterState state;
  EXPECT_EQ(mgr.Checkpoint(1, state).code(), StatusCode::kInternal);
}

TEST(CheckpointManagerTest, HealthSignalsTrackFailuresAndCommits) {
  // Checkpoint health (DESIGN.md §11): consecutive_failures counts the
  // current streak of failed Checkpoint() calls and resets on the next
  // commit; last_commit_epoch tracks the newest committed epoch.
  MemoryCheckpointStore store;
  CheckpointManagerOptions opts;
  opts.epoch_len = 1;
  opts.overhead_budget = 0;
  opts.store_retry.max_attempts = 1;  // every injected fault is fatal
  CheckpointManager mgr(&store, opts);
  CounterState state;

  EXPECT_EQ(mgr.stats().consecutive_failures, 0);
  EXPECT_EQ(mgr.stats().last_commit_epoch, 0);

  ASSERT_TRUE(mgr.Checkpoint(1, state).ok());
  EXPECT_EQ(mgr.stats().consecutive_failures, 0);
  EXPECT_EQ(mgr.stats().last_commit_epoch, 1);

  store.InjectWriteFault(Status::Unavailable("outage"), 2);
  EXPECT_FALSE(mgr.Checkpoint(2, state).ok());
  EXPECT_EQ(mgr.stats().consecutive_failures, 1);
  EXPECT_FALSE(mgr.Checkpoint(3, state).ok());
  EXPECT_EQ(mgr.stats().consecutive_failures, 2);
  EXPECT_EQ(mgr.stats().last_commit_epoch, 1) << "failed epochs don't count";

  ASSERT_TRUE(mgr.Checkpoint(4, state).ok());
  EXPECT_EQ(mgr.stats().consecutive_failures, 0) << "streak resets on commit";
  EXPECT_EQ(mgr.stats().last_commit_epoch, 4);
}

TEST(CheckpointManagerTest, StagedOnlyCheckpointDoesNotAdvanceHealth) {
  // commit = false stages without publishing; the health signals must not
  // claim an epoch that recovery can never see.
  MemoryCheckpointStore store;
  CheckpointManager mgr(&store);
  CounterState state;
  ASSERT_TRUE(mgr.Checkpoint(2, state, /*commit=*/false).ok());
  EXPECT_EQ(mgr.stats().last_commit_epoch, 0);
  EXPECT_EQ(mgr.stats().consecutive_failures, 0);
  ASSERT_TRUE(mgr.Checkpoint(4, state).ok());
  EXPECT_EQ(mgr.stats().last_commit_epoch, 4);
}

// ---------------------------------------------------------------------------
// DeltaBuffer faults and the executor retry path
// ---------------------------------------------------------------------------

Schema OneCol() { return Schema({{"x", DataType::kInt64}}); }

TEST(DeltaBufferFaultTest, TransientFaultAutoDisarms) {
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  buf.InjectFault(Status::Unavailable("partition handoff"), 2);
  EXPECT_EQ(buf.ConsumeNew(c).status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(buf.HasFault());
  EXPECT_EQ(buf.ConsumeNew(c).status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(buf.HasFault());  // disarmed after the 2nd failure
  EXPECT_EQ(buf.ConsumeNew(c).value().size(), 1u);
}

TEST(DeltaBufferFaultTest, ResetDisarmsInjectedFault) {
  // Regression: Reset() used to clear the log and offsets but leave an
  // injected fault armed, so a "fresh" buffer kept failing consumes.
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  buf.InjectFault(Status::Internal("poisoned"));
  ASSERT_TRUE(buf.HasFault());
  buf.Reset();
  EXPECT_FALSE(buf.HasFault());
  buf.Append(DeltaTuple({Value(int64_t{5})}, QuerySet::Single(0), 1));
  EXPECT_EQ(buf.ConsumeNew(c).value().size(), 1u);
}

TEST(DeltaBufferFaultTest, InjectZeroTimesIsNoop) {
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  buf.InjectFault(Status::Unavailable("x"), 0);
  EXPECT_FALSE(buf.HasFault());
  EXPECT_TRUE(buf.ConsumeNew(c).ok());
}

// A window whose base buffer throws a few transient faults still completes
// (executor-level retry with virtual backoff), and matches the clean run's
// results exactly. A permanent fault still fails the run.
TEST(ExecutorRetryTest, TransientBaseFaultsAreRetriedToSuccess) {
  TestDb db(/*n_orders=*/60, /*n_customers=*/6);
  QuerySet q0 = QuerySet::Single(0);
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "orders", q0);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      scan, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, q0);
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "q0", agg}});

  db.source.Reset();
  AdaptiveExecutor clean(&g, &db.source);
  RunResult clean_run = clean.Run({4}).value().run;
  auto clean_result = MaterializeResult(*clean.query_output(0), 0);

  db.source.Reset();
  ExecOptions opts;
  opts.retry.max_attempts = 4;
  AdaptiveExecutor exec(&g, &db.source, opts);
  // Two consecutive transient failures, then the buffer recovers; the
  // default policy has budget for both.
  db.source.buffer("orders")->InjectFault(
      Status::Unavailable("partition moving"), 2);
  Result<AdaptiveRunResult> r = exec.Run({4});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->run.total_work, clean_run.total_work);
  EXPECT_EQ(MaterializeResult(*exec.query_output(0), 0), clean_result);
}

TEST(ExecutorRetryTest, ExhaustedTransientBudgetFailsRun) {
  TestDb db(/*n_orders=*/40, /*n_customers=*/4);
  QuerySet q0 = QuerySet::Single(0);
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "orders", q0);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      scan, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, q0);
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "q0", agg}});

  db.source.Reset();
  ExecOptions opts;
  opts.retry.max_attempts = 2;
  AdaptiveExecutor exec(&g, &db.source, opts);
  db.source.buffer("orders")->InjectFault(
      Status::Unavailable("long outage"), 10);
  Result<AdaptiveRunResult> r = exec.Run({2});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
}

TEST(ExecutorRetryTest, PermanentFaultFailsWithoutRetry) {
  TestDb db(/*n_orders=*/40, /*n_customers=*/4);
  QuerySet q0 = QuerySet::Single(0);
  PlanNodePtr scan = PlanNode::MakeScan(db.catalog, "orders", q0);
  PlanNodePtr agg = PlanNode::MakeAggregate(
      scan, {"o_custkey"}, {SumAgg(Col("o_amount"), "total")}, q0);
  SubplanGraph g = SubplanGraph::Build({QueryPlan{0, "q0", agg}});

  db.source.Reset();
  AdaptiveExecutor exec(&g, &db.source);
  db.source.buffer("orders")->InjectFault(Status::Internal("poisoned"), 1);
  Result<AdaptiveRunResult> r = exec.Run({2});
  ASSERT_FALSE(r.ok());
  // Had it been retried, the fault (times=1) would have disarmed and the
  // run would have succeeded; failing proves permanent = no retry.
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace ishare
