#ifndef ISHARE_COMMON_QUERY_SET_H_
#define ISHARE_COMMON_QUERY_SET_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ishare/common/check.h"

namespace ishare {

// Identifies a query within one optimization/execution session.
// Queries are numbered from 0; ids only need to be unique, not dense —
// online churn (DESIGN.md §13) retires ids and keeps allocating fresh ones.
using QueryId = int;

// A set of queries — the SharedDB-style annotation attached to every
// intermediate tuple and every shared operator: bit q is set iff the
// tuple/operator is valid for query q.
//
// Representation: an inline 64-bit word covers queries 0..63 (the common
// case: the paper's sessions top out at 22 queries, and per-tuple
// annotations stay one machine word). Sessions with higher ids spill into
// a word vector (word i covers ids [64*i, 64*i+64)), kept normalized —
// no trailing zero words — so value comparison stays word-wise.
class QuerySet {
 public:
  // Capacity of the inline word; NOT a cap on ids. u64 fast paths are
  // gated on fits_inline(), i.e. ids < this.
  static constexpr int kInlineQueries = 64;
  // Sanity bound on ids: large enough for any real session (the churn
  // stress allocates ~1k ids), small enough to catch garbage (negative
  // wrap-arounds, uninitialized ints) before they size a word vector.
  static constexpr QueryId kMaxQueryId = 1 << 20;

  QuerySet() : low_(0) {}
  // Inline-word construction (queries 0..63), the historical bitvector
  // constructor; still the idiom for test literals like QuerySet(0b11).
  explicit QuerySet(uint64_t bits) : low_(bits) {}

  static QuerySet Single(QueryId q) {
    QuerySet s;
    s.Add(q);
    return s;
  }

  static QuerySet FromIds(const std::vector<QueryId>& ids) {
    QuerySet s;
    for (QueryId q : ids) s.Add(q);
    return s;
  }

  // All queries in [0, n). No shift-by-64 hazard: the set is built from
  // n/64 full words plus one partial word.
  static QuerySet FirstN(int n) {
    CHECK_GE(n, 0);
    CHECK_LE(n, kMaxQueryId);
    QuerySet s;
    int full = n / 64, rem = n % 64;
    if (full > 0) {
      s.low_ = ~uint64_t{0};
      s.spill_.assign(static_cast<size_t>(full) - 1, ~uint64_t{0});
      if (rem > 0) s.spill_.push_back((uint64_t{1} << rem) - 1);
    } else if (rem > 0) {
      s.low_ = (uint64_t{1} << rem) - 1;
    }
    return s;
  }

  // The inline word (queries 0..63). Callers on u64 fast paths must gate
  // on fits_inline(); bare bits() of a spilled set would silently drop
  // the high queries.
  uint64_t bits() const {
    DCHECK(fits_inline());
    return low_;
  }
  bool fits_inline() const { return spill_.empty(); }

  bool empty() const {
    if (low_ != 0) return false;
    for (uint64_t w : spill_) {
      if (w != 0) return false;
    }
    return true;
  }

  int size() const {
    int n = std::popcount(low_);
    for (uint64_t w : spill_) n += std::popcount(w);
    return n;
  }

  // Membership saturates: ids beyond the stored words are simply absent.
  // Only genuinely malformed ids (negative) fail.
  bool Contains(QueryId q) const {
    CHECK_GE(q, 0);
    if (q < 64) return (low_ >> q) & 1;
    size_t w = static_cast<size_t>(q / 64) - 1;
    if (w >= spill_.size()) return false;
    return (spill_[w] >> (q % 64)) & 1;
  }

  bool ContainsAll(const QuerySet& other) const {
    if ((low_ & other.low_) != other.low_) return false;
    if (other.spill_.size() > spill_.size()) {
      for (size_t i = spill_.size(); i < other.spill_.size(); ++i) {
        if (other.spill_[i] != 0) return false;
      }
    }
    size_t n = std::min(spill_.size(), other.spill_.size());
    for (size_t i = 0; i < n; ++i) {
      if ((spill_[i] & other.spill_[i]) != other.spill_[i]) return false;
    }
    return true;
  }

  bool Intersects(const QuerySet& other) const {
    if ((low_ & other.low_) != 0) return true;
    size_t n = std::min(spill_.size(), other.spill_.size());
    for (size_t i = 0; i < n; ++i) {
      if ((spill_[i] & other.spill_[i]) != 0) return true;
    }
    return false;
  }

  // Out-of-range ids fail loudly in release builds too (CHECK, not
  // DCHECK): a bad id here would silently corrupt shared annotations.
  void Add(QueryId q) {
    CHECK_GE(q, 0);
    CHECK_LT(q, kMaxQueryId);
    if (q < 64) {
      low_ |= uint64_t{1} << q;
      return;
    }
    size_t w = static_cast<size_t>(q / 64) - 1;
    if (w >= spill_.size()) spill_.resize(w + 1, 0);
    spill_[w] |= uint64_t{1} << (q % 64);
  }

  // Removal saturates like Contains: ids beyond the stored words are
  // already absent.
  void Remove(QueryId q) {
    CHECK_GE(q, 0);
    if (q < 64) {
      low_ &= ~(uint64_t{1} << q);
      return;
    }
    size_t w = static_cast<size_t>(q / 64) - 1;
    if (w < spill_.size()) {
      spill_[w] &= ~(uint64_t{1} << (q % 64));
      Normalize();
    }
  }

  QuerySet Union(const QuerySet& other) const {
    QuerySet out;
    out.low_ = low_ | other.low_;
    const QuerySet& longer = spill_.size() >= other.spill_.size() ? *this
                                                                  : other;
    const QuerySet& shorter = spill_.size() >= other.spill_.size() ? other
                                                                   : *this;
    out.spill_ = longer.spill_;
    for (size_t i = 0; i < shorter.spill_.size(); ++i) {
      out.spill_[i] |= shorter.spill_[i];
    }
    return out;
  }

  QuerySet Intersect(const QuerySet& other) const {
    QuerySet out;
    out.low_ = low_ & other.low_;
    size_t n = std::min(spill_.size(), other.spill_.size());
    out.spill_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      out.spill_[i] = spill_[i] & other.spill_[i];
    }
    out.Normalize();
    return out;
  }

  QuerySet Minus(const QuerySet& other) const {
    QuerySet out = *this;
    out.low_ &= ~other.low_;
    size_t n = std::min(out.spill_.size(), other.spill_.size());
    for (size_t i = 0; i < n; ++i) {
      out.spill_[i] &= ~other.spill_[i];
    }
    out.Normalize();
    return out;
  }

  // Lowest query id in the set; set must be non-empty.
  QueryId First() const {
    if (low_ != 0) return std::countr_zero(low_);
    for (size_t i = 0; i < spill_.size(); ++i) {
      if (spill_[i] != 0) {
        return static_cast<QueryId>(64 * (i + 1)) + std::countr_zero(spill_[i]);
      }
    }
    CHECK(false) << "First() on empty QuerySet";
    return -1;
  }

  std::vector<QueryId> ToIds() const {
    std::vector<QueryId> ids;
    ids.reserve(static_cast<size_t>(size()));
    auto drain = [&ids](uint64_t b, QueryId base) {
      while (b != 0) {
        ids.push_back(base + std::countr_zero(b));
        b &= b - 1;
      }
    };
    drain(low_, 0);
    for (size_t i = 0; i < spill_.size(); ++i) {
      drain(spill_[i], static_cast<QueryId>(64 * (i + 1)));
    }
    return ids;
  }

  std::string ToString() const {
    std::string out = "{";
    bool first = true;
    for (QueryId q : ToIds()) {
      if (!first) out += ",";
      out += "q" + std::to_string(q);
      first = false;
    }
    out += "}";
    return out;
  }

  // Word-wise serialization surface (recovery serializer): word 0 is the
  // inline word, words 1.. are the spill. Normalized, so the count is a
  // value property.
  int num_words() const { return 1 + static_cast<int>(spill_.size()); }
  uint64_t word(int i) const {
    DCHECK(i >= 0 && i < num_words());
    return i == 0 ? low_ : spill_[static_cast<size_t>(i) - 1];
  }
  void set_word(int i, uint64_t w) {
    CHECK_GE(i, 0);
    CHECK_LT(static_cast<size_t>(i), (kMaxQueryId / 64) + size_t{1});
    if (i == 0) {
      low_ = w;
      return;
    }
    if (static_cast<size_t>(i) > spill_.size()) {
      spill_.resize(static_cast<size_t>(i), 0);
    }
    spill_[static_cast<size_t>(i) - 1] = w;
    Normalize();
  }

  // Stable value hash (memo keys); NOT serialized state.
  uint64_t Hash() const {
    auto mix = [](uint64_t h, uint64_t w) {
      h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdull;
      return h ^ (h >> 33);
    };
    uint64_t h = mix(0x5851f42d4c957f2dull, low_);
    for (uint64_t w : spill_) h = mix(h, w);
    return h;
  }

  friend bool operator==(const QuerySet& a, const QuerySet& b) {
    return a.low_ == b.low_ && a.spill_ == b.spill_;
  }
  friend bool operator!=(const QuerySet& a, const QuerySet& b) {
    return !(a == b);
  }
  // Orders by highest word down (normalized ⇒ more words means greater),
  // matching the old u64 comparison on inline-only sets.
  friend bool operator<(const QuerySet& a, const QuerySet& b) {
    if (a.spill_.size() != b.spill_.size()) {
      return a.spill_.size() < b.spill_.size();
    }
    for (size_t i = a.spill_.size(); i-- > 0;) {
      if (a.spill_[i] != b.spill_[i]) return a.spill_[i] < b.spill_[i];
    }
    return a.low_ < b.low_;
  }

 private:
  void Normalize() {
    while (!spill_.empty() && spill_.back() == 0) spill_.pop_back();
  }

  uint64_t low_;                 // queries 0..63
  std::vector<uint64_t> spill_;  // word i covers ids [64*(i+1), 64*(i+2))
};

}  // namespace ishare

#endif  // ISHARE_COMMON_QUERY_SET_H_
