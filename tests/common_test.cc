#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "ishare/common/flat_hash.h"
#include "ishare/common/hash.h"
#include "ishare/common/query_set.h"
#include "ishare/common/rng.h"
#include "ishare/common/status.h"

namespace ishare {
namespace {

TEST(QuerySetTest, EmptyAndSingle) {
  QuerySet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0);

  QuerySet s = QuerySet::Single(5);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(4));
  EXPECT_EQ(s.First(), 5);
}

TEST(QuerySetTest, SetAlgebra) {
  QuerySet a = QuerySet::FromIds({0, 2, 4});
  QuerySet b = QuerySet::FromIds({2, 3});
  EXPECT_EQ(a.Union(b), QuerySet::FromIds({0, 2, 3, 4}));
  EXPECT_EQ(a.Intersect(b), QuerySet::Single(2));
  EXPECT_EQ(a.Minus(b), QuerySet::FromIds({0, 4}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(QuerySet::FromIds({0, 4})));
}

TEST(QuerySetTest, FirstN) {
  EXPECT_EQ(QuerySet::FirstN(0).size(), 0);
  EXPECT_EQ(QuerySet::FirstN(3), QuerySet::FromIds({0, 1, 2}));
  EXPECT_EQ(QuerySet::FirstN(64).size(), 64);
}

TEST(QuerySetTest, FirstNBoundaries) {
  for (int n : {63, 64, 65, 1000}) {
    QuerySet s = QuerySet::FirstN(n);
    EXPECT_EQ(s.size(), n) << "n=" << n;
    EXPECT_TRUE(s.Contains(0)) << "n=" << n;
    EXPECT_TRUE(s.Contains(n - 1)) << "n=" << n;
    EXPECT_FALSE(s.Contains(n)) << "n=" << n;
    EXPECT_EQ(s.First(), 0) << "n=" << n;
    EXPECT_EQ(s.ToIds().size(), static_cast<size_t>(n)) << "n=" << n;
    EXPECT_EQ(s.fits_inline(), n <= 64) << "n=" << n;
  }
  EXPECT_EQ(QuerySet::FirstN(65).Minus(QuerySet::FirstN(64)),
            QuerySet::Single(64));
}

TEST(QuerySetTest, SpillAlgebra) {
  QuerySet a = QuerySet::FromIds({3, 64, 130, 999});
  QuerySet b = QuerySet::FromIds({3, 130, 500});
  EXPECT_EQ(a.size(), 4);
  EXPECT_FALSE(a.fits_inline());
  EXPECT_TRUE(a.Contains(999));
  EXPECT_FALSE(a.Contains(998));
  EXPECT_FALSE(a.Contains(100000));  // saturating, far past stored words
  EXPECT_EQ(a.Union(b), QuerySet::FromIds({3, 64, 130, 500, 999}));
  EXPECT_EQ(a.Intersect(b), QuerySet::FromIds({3, 130}));
  EXPECT_EQ(a.Minus(b), QuerySet::FromIds({64, 999}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(QuerySet::FromIds({64, 999})));
  EXPECT_EQ(a.First(), 3);
  EXPECT_EQ(QuerySet::Single(999).First(), 999);
  EXPECT_EQ(a.ToIds(), (std::vector<QueryId>{3, 64, 130, 999}));
}

TEST(QuerySetTest, SpillNormalization) {
  // Removing the only high id must restore value equality (and ordering)
  // with the inline-only representation.
  QuerySet a = QuerySet::FromIds({1, 200});
  a.Remove(200);
  EXPECT_EQ(a, QuerySet::Single(1));
  EXPECT_TRUE(a.fits_inline());
  EXPECT_FALSE(a < QuerySet::Single(1));
  EXPECT_FALSE(QuerySet::Single(1) < a);

  QuerySet b = QuerySet::FromIds({1, 200});
  QuerySet c = b.Minus(QuerySet::Single(200));
  EXPECT_EQ(c, QuerySet::Single(1));
  EXPECT_EQ(b.Intersect(QuerySet::Single(1)), QuerySet::Single(1));
  EXPECT_TRUE(b.Intersect(QuerySet::Single(1)).fits_inline());
}

TEST(QuerySetTest, SpillOrderingAndHash) {
  QuerySet lo = QuerySet::FirstN(64);
  QuerySet hi = QuerySet::Single(64);
  EXPECT_TRUE(lo < hi);  // more words ⇒ greater, matching u64 order
  EXPECT_TRUE(QuerySet::Single(64) < QuerySet::Single(128));
  EXPECT_NE(QuerySet::FromIds({0, 64}).Hash(), QuerySet::Single(64).Hash());
  EXPECT_EQ(QuerySet::FromIds({0, 64}).Hash(),
            QuerySet::FromIds({64, 0}).Hash());
}

TEST(QuerySetTest, ContainsSaturatesOutOfRange) {
  // Membership of an id the set never stored is plain false, in release
  // builds too — no silent DCHECK-only bounds trap.
  QuerySet s = QuerySet::Single(2);
  EXPECT_FALSE(s.Contains(63));
  EXPECT_FALSE(s.Contains(64));
  EXPECT_FALSE(s.Contains(QuerySet::kMaxQueryId - 1));
  s.Remove(QuerySet::kMaxQueryId - 1);  // saturating no-op
  EXPECT_EQ(s, QuerySet::Single(2));
}

TEST(QuerySetTest, ToIdsRoundTrip) {
  std::vector<QueryId> ids = {1, 7, 63};
  EXPECT_EQ(QuerySet::FromIds(ids).ToIds(), ids);
}

TEST(QuerySetTest, HighestBit) {
  QuerySet s = QuerySet::Single(63);
  EXPECT_TRUE(s.Contains(63));
  EXPECT_EQ(s.ToIds(), std::vector<QueryId>{63});
}

TEST(QuerySetTest, ToString) {
  EXPECT_EQ(QuerySet::FromIds({0, 3}).ToString(), "{q0,q3}");
  EXPECT_EQ(QuerySet().ToString(), "{}");
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad pace");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad pace");
}

TEST(StatusTest, TransientTaxonomy) {
  // The retry taxonomy (DESIGN.md §8): exactly kUnavailable is transient;
  // everything else — including data loss — is permanent. Retrying a
  // permanent error can never help and only delays the failure.
  EXPECT_TRUE(Status::Unavailable("partition handoff").IsTransient());
  EXPECT_TRUE(StatusCodeIsTransient(StatusCode::kUnavailable));

  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("x").IsTransient());
  EXPECT_FALSE(Status::NotFound("x").IsTransient());
  EXPECT_FALSE(Status::AlreadyExists("x").IsTransient());
  EXPECT_FALSE(Status::OutOfRange("x").IsTransient());
  EXPECT_FALSE(Status::NotSupported("x").IsTransient());
  EXPECT_FALSE(Status::Internal("x").IsTransient());
  EXPECT_FALSE(Status::DataLoss("x").IsTransient());
}

TEST(StatusTest, NewCodesHaveNames) {
  EXPECT_EQ(Status::Unavailable("s down").ToString(), "Unavailable: s down");
  EXPECT_EQ(Status::DataLoss("torn").ToString(), "DataLoss: torn");
  EXPECT_EQ(Status::ResourceExhausted("buffer full").ToString(),
            "ResourceExhausted: buffer full");
}

TEST(StatusTest, BackpressureTaxonomy) {
  // Backpressure (DESIGN.md §9) is deliberately disjoint from the
  // transient taxonomy: kResourceExhausted means "shed or defer", never
  // "retry against the storage-fault budget" — blind retries against a
  // full buffer would burn the recovery layer's attempts on a condition
  // that only draining can clear.
  Status bp = Status::ResourceExhausted("over high watermark");
  EXPECT_EQ(bp.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(bp.IsRetryableBackpressure());
  EXPECT_FALSE(bp.IsTransient());
  EXPECT_FALSE(StatusCodeIsTransient(StatusCode::kResourceExhausted));

  // No other code is backpressure.
  EXPECT_FALSE(Status::OK().IsRetryableBackpressure());
  EXPECT_FALSE(Status::Unavailable("x").IsRetryableBackpressure());
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryableBackpressure());
  EXPECT_FALSE(Status::Internal("x").IsRetryableBackpressure());
  EXPECT_FALSE(Status::DataLoss("x").IsRetryableBackpressure());
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r(Status::NotFound("x"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(HashTest, MixingChangesValue) {
  EXPECT_NE(Mix64(1), Mix64(2));
  EXPECT_NE(HashCombine(0, 1), HashCombine(1, 0));
  EXPECT_NE(HashString("a"), HashString("b"));
}

// FlatIndexI64 / XxMix64 (common/flat_hash.h, common/hash_probe.h)

TEST(FlatHashTest, FindOrInsertAssignsFirstTouchDenseIds) {
  FlatIndexI64 idx;
  EXPECT_EQ(idx.FindOrInsert(42), 0);
  EXPECT_EQ(idx.FindOrInsert(-1), 1);
  EXPECT_EQ(idx.FindOrInsert(42), 0);  // duplicate keeps its id
  EXPECT_EQ(idx.FindOrInsert(0), 2);
  EXPECT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.keys(), (std::vector<int64_t>{42, -1, 0}));
  EXPECT_EQ(idx.Find(-1), 1);
  EXPECT_EQ(idx.Find(7), -1);
}

TEST(FlatHashTest, GrowthPreservesIdsAgainstReferenceMap) {
  Rng rng(99);
  FlatIndexI64 idx;  // default capacity, forces several grows
  std::unordered_map<int64_t, int32_t> ref;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = rng.UniformInt(-5000, 5000);
    int32_t id = idx.FindOrInsert(key);
    auto [it, fresh] = ref.emplace(key, id);
    if (fresh) {
      EXPECT_EQ(id, static_cast<int32_t>(ref.size()) - 1) << "dense ids";
    } else {
      EXPECT_EQ(id, it->second) << "key " << key;
    }
  }
  EXPECT_EQ(idx.size(), static_cast<int64_t>(ref.size()));
  for (const auto& [key, id] : ref) EXPECT_EQ(idx.Find(key), id);
  idx.Clear();
  EXPECT_EQ(idx.size(), 0);
  EXPECT_EQ(idx.Find(0), -1);
  EXPECT_EQ(idx.FindOrInsert(123), 0);
}

TEST(FlatHashTest, XxMixIsABijectionOnASample) {
  // Sanity: no two of 4k consecutive ints collide after mixing, and the
  // high bits spread.
  std::set<uint64_t> seen;
  std::set<uint64_t> high;
  for (uint64_t i = 0; i < 4096; ++i) {
    uint64_t h = XxMix64(i);
    seen.insert(h);
    high.insert(h >> 60);
  }
  EXPECT_EQ(seen.size(), 4096u);
  EXPECT_EQ(high.size(), 16u);
}

}  // namespace
}  // namespace ishare
