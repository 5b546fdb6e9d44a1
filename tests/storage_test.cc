#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ishare/catalog/catalog.h"
#include "ishare/storage/delta_buffer.h"
#include "ishare/storage/stream_source.h"

namespace ishare {
namespace {

Schema OneCol() { return Schema({{"x", DataType::kInt64}}); }

TEST(DeltaBufferTest, IndependentConsumers) {
  DeltaBuffer buf(OneCol(), "t");
  int c1 = buf.RegisterConsumer();
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  buf.Append(DeltaTuple({Value(int64_t{2})}, QuerySet::Single(0), 1));

  int c2 = buf.RegisterConsumer();  // starts at offset 0

  DeltaSpan b1 = buf.ConsumeNew(c1).value();
  EXPECT_EQ(b1.size(), 2u);
  EXPECT_EQ(buf.Pending(c1).value(), 0);
  EXPECT_EQ(buf.Pending(c2).value(), 2);

  buf.Append(DeltaTuple({Value(int64_t{3})}, QuerySet::Single(0), 1));
  EXPECT_EQ(buf.ConsumeNew(c1).value().size(), 1u);
  EXPECT_EQ(buf.ConsumeNew(c2).value().size(), 3u);
}

TEST(DeltaBufferTest, ConsumeUpToLimits) {
  DeltaBuffer buf(OneCol());
  int c = buf.RegisterConsumer();
  for (int i = 0; i < 5; ++i) {
    buf.Append(DeltaTuple({Value(int64_t{i})}, QuerySet::Single(0), 1));
  }
  EXPECT_EQ(buf.ConsumeUpTo(c, 2).value().size(), 2u);
  EXPECT_EQ(buf.ConsumeUpTo(c, 10).value().size(), 3u);
  EXPECT_EQ(buf.ConsumeUpTo(c, 10).value().size(), 0u);
}

TEST(DeltaBufferTest, ResetClearsLogAndOffsets) {
  DeltaBuffer buf(OneCol());
  int c = buf.RegisterConsumer();
  buf.Append(DeltaTuple({Value(int64_t{1})}, QuerySet::Single(0), 1));
  (void)buf.ConsumeNew(c);
  buf.Reset();
  EXPECT_EQ(buf.size(), 0);
  EXPECT_EQ(buf.Pending(c).value(), 0);
  buf.Append(DeltaTuple({Value(int64_t{2})}, QuerySet::Single(0), 1));
  EXPECT_EQ(buf.ConsumeNew(c).value().size(), 1u);
}

// Pins the single-writer / multi-reader contract in delta_buffer.h: while
// one producer thread appends, reader threads may poll size(), Pending()
// and ConsumerOffset() for their own ids. The logical size is published
// through an atomic, so every observed value must be a real prefix length
// — monotone, and never beyond what the producer has finished appending.
// (Before the atomic, readers raced on log_.size() mid-push_back; tsan
// flags the old code on this exact test.)
TEST(DeltaBufferTest, ConcurrentPendingDuringAppend) {
  constexpr int64_t kAppends = 20000;
  DeltaBuffer buf(OneCol(), "race");
  int c = buf.RegisterConsumer();

  std::atomic<bool> done{false};
  std::atomic<bool> ok{true};
  std::thread reader([&] {
    int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      int64_t pending = buf.Pending(c).value();
      int64_t sz = buf.size();
      if (pending < 0 || pending > kAppends || sz < last || sz > kAppends) {
        ok.store(false);
      }
      last = sz;
      if (buf.ConsumerOffset(c).value() != 0) ok.store(false);
    }
  });

  for (int64_t i = 0; i < kAppends; ++i) {
    buf.Append(DeltaTuple({Value(i)}, QuerySet::Single(0), 1));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(ok.load());
  EXPECT_EQ(buf.size(), kAppends);
  EXPECT_EQ(buf.Pending(c).value(), kAppends);
}

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) rows.push_back({Value(int64_t{i})});
  return rows;
}

TEST(StreamSourceTest, AdvancesByFraction) {
  StreamSource src;
  DeltaBuffer* buf = src.AddTable("t", OneCol(), MakeRows(100));
  ASSERT_TRUE(src.AdvanceToStep(1, 4).ok());
  EXPECT_EQ(buf->size(), 25);
  ASSERT_TRUE(src.AdvanceToStep(1, 2).ok());
  EXPECT_EQ(buf->size(), 50);
  ASSERT_TRUE(src.AdvanceToStep(1, 1).ok());
  EXPECT_EQ(buf->size(), 100);
}

TEST(StreamSourceTest, ResetAllowsRerun) {
  StreamSource src;
  DeltaBuffer* buf = src.AddTable("t", OneCol(), MakeRows(10));
  ASSERT_TRUE(src.AdvanceToStep(1, 1).ok());
  src.Reset();
  EXPECT_EQ(buf->size(), 0);
  EXPECT_EQ(src.current_fraction(), 0.0);
  ASSERT_TRUE(src.AdvanceToStep(1, 1).ok());
  EXPECT_EQ(buf->size(), 10);
}

TEST(CatalogTest, ComputeTableStats) {
  Schema s({{"k", DataType::kInt64}, {"s", DataType::kString}});
  std::vector<Row> rows = {
      {Value(int64_t{1}), Value("a")},
      {Value(int64_t{2}), Value("a")},
      {Value(int64_t{2}), Value("b")},
  };
  TableStats st = ComputeTableStats(s, rows);
  EXPECT_EQ(st.row_count, 3);
  EXPECT_EQ(st.Column("k")->ndv, 2);
  EXPECT_EQ(st.Column("k")->min, 1);
  EXPECT_EQ(st.Column("k")->max, 2);
  EXPECT_TRUE(st.Column("k")->numeric);
  EXPECT_EQ(st.Column("s")->ndv, 2);
  EXPECT_FALSE(st.Column("s")->numeric);
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog cat;
  EXPECT_TRUE(cat.AddTable("t", OneCol(), TableStats()).ok());
  Status st = cat.AddTable("t", OneCol(), TableStats());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

// ---- Bounded retention (DESIGN.md §9) -------------------------------------

DeltaTuple Tup(int64_t v) {
  return DeltaTuple({Value(v)}, QuerySet::Single(0), 1);
}

TEST(DeltaBufferTrimTest, TrimReclaimsFullyConsumedPrefixAndRebases) {
  DeltaBuffer buf(OneCol(), "t");
  int fast = buf.RegisterConsumer();
  int slow = buf.RegisterConsumer();
  for (int64_t i = 0; i < 6; ++i) buf.Append(Tup(i));
  ASSERT_EQ(buf.ConsumeNew(fast).value().size(), 6u);
  ASSERT_EQ(buf.ConsumeUpTo(slow, 2).value().size(), 2u);

  // Only the prefix both consumers passed (2 tuples) is reclaimable.
  EXPECT_EQ(buf.TrimConsumed(), 2);
  EXPECT_EQ(buf.trimmed(), 2);
  EXPECT_EQ(buf.retained_size(), 4);
  EXPECT_EQ(buf.size(), 6);  // logical size is trim-oblivious
  // Physical index 0 now holds logical offset 2.
  EXPECT_EQ(buf.log()[0].row[0].AsInt(), 2);
  // Nothing more reclaimable until the slow consumer advances.
  EXPECT_EQ(buf.TrimConsumed(), 0);

  // Consumption continues seamlessly across the rebased log.
  DeltaSpan rest = buf.ConsumeNew(slow).value();
  ASSERT_EQ(rest.size(), 4u);
  EXPECT_EQ(rest[0].row[0].AsInt(), 2);
  EXPECT_EQ(rest[3].row[0].AsInt(), 5);
  EXPECT_EQ(buf.TrimConsumed(), 4);
  EXPECT_EQ(buf.retained_size(), 0);
  EXPECT_EQ(buf.size(), 6);

  // Appends after a full trim keep logical offsets monotone.
  buf.Append(Tup(6));
  EXPECT_EQ(buf.size(), 7);
  EXPECT_EQ(buf.Pending(slow).value(), 1);
  EXPECT_EQ(buf.ConsumeNew(slow).value()[0].row[0].AsInt(), 6);
}

TEST(DeltaBufferTrimTest, BufferWithoutConsumersNeverTrims) {
  DeltaBuffer buf(OneCol(), "root");
  for (int64_t i = 0; i < 4; ++i) buf.Append(Tup(i));
  // Query roots are read out-of-band; no offset proves the data was seen.
  EXPECT_EQ(buf.TrimConsumed(), 0);
  EXPECT_EQ(buf.retained_size(), 4);
  EXPECT_EQ(buf.trimmed(), 0);
}

TEST(DeltaBufferTrimTest, TrimUpdatesRetainedBytesAndBudget) {
  flow::MemoryBudget budget(0);  // track-only
  DeltaBuffer buf(OneCol(), "t");
  buf.AttachBudget(&budget);
  int c = buf.RegisterConsumer();
  for (int64_t i = 0; i < 3; ++i) buf.Append(Tup(i));
  int64_t full = buf.retained_bytes();
  EXPECT_GT(full, 0);
  EXPECT_EQ(budget.used(), full);

  ASSERT_EQ(buf.ConsumeUpTo(c, 1).value().size(), 1u);
  EXPECT_EQ(buf.TrimConsumed(), 1);
  EXPECT_EQ(buf.retained_bytes(), full / 3 * 2);
  EXPECT_EQ(budget.used(), buf.retained_bytes());
  EXPECT_EQ(budget.peak(), full);
}

TEST(DeltaBufferTrimTest, WatermarkHysteresis) {
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  int64_t per_tuple = ApproxDeltaBytes(Tup(0));
  buf.set_soft_limit_bytes(4 * per_tuple);  // high 4 tuples, low 2

  for (int64_t i = 0; i < 3; ++i) buf.Append(Tup(i));
  EXPECT_TRUE(buf.AdmitStatus().ok());
  buf.Append(Tup(3));  // reaches high watermark
  Status st = buf.AdmitStatus();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(st.IsRetryableBackpressure());
  EXPECT_FALSE(st.IsTransient());

  // Draining to 3 tuples (above the low watermark) keeps backpressure on:
  // hysteresis prevents admit/refuse flapping at the limit.
  ASSERT_EQ(buf.ConsumeUpTo(c, 1).value().size(), 1u);
  EXPECT_EQ(buf.TrimConsumed(), 1);
  EXPECT_FALSE(buf.AdmitStatus().ok());

  // Draining to the low watermark (2 tuples) clears it.
  ASSERT_EQ(buf.ConsumeUpTo(c, 1).value().size(), 1u);
  EXPECT_EQ(buf.TrimConsumed(), 1);
  EXPECT_TRUE(buf.AdmitStatus().ok());
}

TEST(DeltaBufferTrimTest, SnapshotRestoreRoundTripsTrimState) {
  DeltaBuffer buf(OneCol(), "t");
  int c0 = buf.RegisterConsumer();
  int c1 = buf.RegisterConsumer();
  for (int64_t i = 0; i < 5; ++i) buf.Append(Tup(i));
  ASSERT_EQ(buf.ConsumeNew(c0).value().size(), 5u);
  ASSERT_EQ(buf.ConsumeUpTo(c1, 3).value().size(), 3u);
  ASSERT_EQ(buf.TrimConsumed(), 3);

  recovery::CheckpointWriter w;
  buf.Snapshot(&w);
  std::string blob = w.Take();

  DeltaBuffer restored(OneCol(), "t");
  restored.RegisterConsumer();
  restored.RegisterConsumer();
  recovery::CheckpointReader r(blob);
  ASSERT_TRUE(restored.Restore(&r).ok()) << r.status().ToString();
  EXPECT_EQ(restored.trimmed(), 3);
  EXPECT_EQ(restored.size(), 5);
  EXPECT_EQ(restored.retained_size(), 2);
  EXPECT_EQ(restored.retained_bytes(), buf.retained_bytes());
  EXPECT_EQ(restored.log()[0].row[0].AsInt(), 3);
  // The slower consumer resumes exactly where it left off.
  EXPECT_EQ(restored.Pending(1).value(), 2);
  EXPECT_EQ(restored.ConsumeNew(1).value()[0].row[0].AsInt(), 3);
}

TEST(DeltaBufferTrimTest, RestoreRejectsOffsetBelowTrimBase) {
  // A checkpoint whose consumer offset points below the trim base refers
  // to tuples that no longer exist; restore must fail, not wrap around.
  DeltaBuffer buf(OneCol(), "t");
  int c = buf.RegisterConsumer();
  for (int64_t i = 0; i < 4; ++i) buf.Append(Tup(i));
  ASSERT_EQ(buf.ConsumeNew(c).value().size(), 4u);
  ASSERT_EQ(buf.TrimConsumed(), 4);

  recovery::CheckpointWriter w;
  w.I64(buf.trimmed());  // base offset 4
  w.U64(0);              // empty retained log
  w.U64(1);              // one consumer...
  w.I64(2);              // ...parked below the trim base
  std::string blob = w.Take();
  recovery::CheckpointReader r(blob);
  DeltaBuffer target(OneCol(), "t");
  target.RegisterConsumer();
  Status st = target.Restore(&r);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("out of range"), std::string::npos);
}

}  // namespace
}  // namespace ishare
