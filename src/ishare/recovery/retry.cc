#include "ishare/recovery/retry.h"

#include <algorithm>

namespace ishare::recovery {

double BackoffSeconds(int attempt) {
  constexpr double kBaseBackoffSeconds = 0.001;
  constexpr double kBackoffMultiplier = 2.0;
  constexpr double kMaxBackoffSeconds = 0.100;
  attempt = std::max(attempt, 1);
  double backoff = kBaseBackoffSeconds;
  for (int i = 1; i < attempt; ++i) backoff *= kBackoffMultiplier;
  return std::min(backoff, kMaxBackoffSeconds);
}

}  // namespace ishare::recovery
