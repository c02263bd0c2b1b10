// Capped exponential backoff with seeded jitter for TransientError retries.
//
// The store's command policy (service/store.hpp) and the wire client
// (net/client.hpp) retry a TransientError — a failure where the command did
// not execute — the same way; this is the one definition both use.  Each
// side keeps its own default attempt count and its own jitter stream.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/rng.hpp"

namespace adpm::util {

struct RetryPolicy {
  /// Total attempts for a command failing with TransientError; 1 = no retry.
  /// Non-transient errors never retry.
  unsigned maxAttempts = 1;
  /// Backoff before retry k (1-based) is base·2^(k-1) capped at `backoffCap`,
  /// stretched by a jitter factor in [1-jitter, 1+jitter].
  std::chrono::microseconds backoffBase{200};
  std::chrono::microseconds backoffCap{50000};
  double jitter = 0.5;
  /// Seed of the jitter stream — retries are reproducible like everything
  /// else.
  std::uint64_t jitterSeed = 0x5eed;

  /// The delay before retry `attempt` (1-based); the jitter factor is drawn
  /// from `rng`, which the caller seeds with jitterSeed.
  std::chrono::microseconds backoff(unsigned attempt, Rng& rng) const {
    double micros = static_cast<double>(backoffBase.count());
    for (unsigned i = 1; i < attempt; ++i) micros *= 2.0;
    micros = std::min(micros, static_cast<double>(backoffCap.count()));
    const double factor =
        jitter > 0.0 ? rng.uniform(1.0 - jitter, 1.0 + jitter) : 1.0;
    return std::chrono::microseconds(
        static_cast<std::int64_t>(micros * factor));
  }
};

}  // namespace adpm::util
