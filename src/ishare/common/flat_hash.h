// Flat open-addressing integer hash index (DESIGN.md §12.2). Maps int64
// keys to dense ids [0, n) with linear probing over a power-of-two slot
// array and an xxhash-style avalanche finalizer — the flat_hash_map/
// robin_map idiom of the parallel-groupby exemplar, specialized to
// find-or-insert returning a dense id to index accumulator arrays.
// The mix + probe loop live in common/hash_probe.h, shared with the
// arrangement row index (DESIGN.md §15).

#ifndef ISHARE_COMMON_FLAT_HASH_H_
#define ISHARE_COMMON_FLAT_HASH_H_

#include <cstdint>
#include <vector>

#include "ishare/common/check.h"
#include "ishare/common/hash_probe.h"

namespace ishare {

// Open-addressing map from int64 key to dense id, assigned in first-touch
// order. No erase: an index only grows (Clear() resets it). Load factor
// is kept under ~0.7 by doubling the slot array.
class FlatIndexI64 {
 public:
  explicit FlatIndexI64(int64_t expected_keys = 0) {
    int64_t cap = 16;
    while (cap < expected_keys * 2) cap <<= 1;
    slots_.assign(static_cast<size_t>(cap), -1);
    mask_ = static_cast<uint64_t>(cap - 1);
  }

  // Dense id of `key`, inserting the next id if absent.
  int32_t FindOrInsert(int64_t key) {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, static_cast<uint64_t>(key), &found,
                             [&](uint64_t, int32_t id) {
                               return keys_[static_cast<size_t>(id)] == key;
                             });
    if (found) return slots_[h];
    int32_t fresh = static_cast<int32_t>(keys_.size());
    slots_[h] = fresh;
    keys_.push_back(key);
    if (keys_.size() * 10 >= slots_.size() * 7) Grow();
    return fresh;
  }

  // Dense id of `key`, or -1 if absent.
  int32_t Find(int64_t key) const {
    bool found = false;
    uint64_t h = LinearProbe(slots_, mask_, static_cast<uint64_t>(key), &found,
                             [&](uint64_t, int32_t id) {
                               return keys_[static_cast<size_t>(id)] == key;
                             });
    return found ? slots_[h] : -1;
  }

  int64_t size() const { return static_cast<int64_t>(keys_.size()); }

  // Dense key array; keys_[id] is the key of dense id `id` (first-touch
  // order, the order accumulator arrays are laid out in).
  const std::vector<int64_t>& keys() const { return keys_; }

  void Clear() {
    keys_.clear();
    slots_.assign(slots_.size(), -1);
  }

  int64_t ApproxBytes() const {
    return static_cast<int64_t>(slots_.size() * sizeof(int32_t) +
                                keys_.size() * sizeof(int64_t));
  }

 private:
  void Grow() {
    size_t cap = slots_.size() * 2;
    slots_.assign(cap, -1);
    mask_ = static_cast<uint64_t>(cap - 1);
    for (size_t id = 0; id < keys_.size(); ++id) {
      bool found = false;
      uint64_t h = LinearProbe(slots_, mask_,
                               static_cast<uint64_t>(keys_[id]), &found,
                               [](uint64_t, int32_t) { return false; });
      CHECK(!found);
      slots_[h] = static_cast<int32_t>(id);
    }
  }

  std::vector<int32_t> slots_;  // -1 = empty, else dense id
  std::vector<int64_t> keys_;   // dense id -> key
  uint64_t mask_ = 0;
};

}  // namespace ishare

#endif  // ISHARE_COMMON_FLAT_HASH_H_
