#ifndef ISHARE_COMMON_HASH_H_
#define ISHARE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace ishare {

// 64-bit mix (splitmix64 finalizer); good avalanche for hash combining.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

inline uint64_t HashString(const std::string& s) {
  // FNV-1a.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace ishare

#endif  // ISHARE_COMMON_HASH_H_
