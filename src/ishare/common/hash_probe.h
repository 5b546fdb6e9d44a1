// Shared xx-mix hash finalizer and linear-probe loop for the flat
// open-addressing indexes: `FlatIndexI64` (common/flat_hash.h) and the
// arrangement row index `FlatRowIndex` (DESIGN.md §15.1).

#ifndef ISHARE_COMMON_HASH_PROBE_H_
#define ISHARE_COMMON_HASH_PROBE_H_

#include <cstdint>
#include <vector>

namespace ishare {

// xxhash64-style avalanche mix (XXH64 finalizer primes). Distinct from
// Mix64 (splitmix64) used for Value/Row hashing so the flat tables and
// the generic unordered_map paths never share collision structure.
inline uint64_t XxMix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xc2b2ae3d27d4eb4fULL;
  x ^= x >> 29;
  x *= 0x165667b19e3779f9ULL;
  x ^= x >> 32;
  return x;
}

// One linear-probe walk over a power-of-two slot array (`mask` =
// capacity - 1). Starts at the xx-mixed hash of `hash_input` and calls
// `probe(slot_index, dense_id)` for each occupied slot until it returns
// true ("stop: this is my key") or an empty slot (-1) is reached. Returns
// the slot index where the walk stopped; `*found` reports whether the walk
// stopped on an occupied slot (true) or on the empty slot (false).
//
// Every flat index in the codebase — FindOrInsert, Find, and rehash-on-Grow
// (probe that never matches) — is this loop with a different `probe`.
template <typename ProbeFn>
inline uint64_t LinearProbe(const std::vector<int32_t>& slots, uint64_t mask,
                            uint64_t hash_input, bool* found, ProbeFn probe) {
  uint64_t h = XxMix64(hash_input) & mask;
  for (;;) {
    int32_t id = slots[h];
    if (id < 0) {
      *found = false;
      return h;
    }
    if (probe(h, id)) {
      *found = true;
      return h;
    }
    h = (h + 1) & mask;
  }
}

}  // namespace ishare

#endif  // ISHARE_COMMON_HASH_PROBE_H_
