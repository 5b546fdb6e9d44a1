// Whole-string parsers for command-line values (the bench flags and
// ishare_cli): empty input, trailing junk, overflow and non-finite numbers
// fail, so a misread flag is rejected instead of silently becoming 0.

#ifndef ISHARE_COMMON_PARSE_H_
#define ISHARE_COMMON_PARSE_H_

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace ishare {

inline bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

inline bool ParseInt(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// Digits only: no sign or whitespace, so "-1" cannot wrap to 2^64 - 1.
inline bool ParseSeed(const char* s, uint64_t* out) {
  if (*s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  unsigned long long v = std::strtoull(s, nullptr, 10);
  if (errno != 0) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace ishare

#endif  // ISHARE_COMMON_PARSE_H_
