#include "util/retry.hpp"

#include <gtest/gtest.h>

namespace adpm::util {
namespace {

using std::chrono::microseconds;

TEST(RetryPolicy, BackoffDoublesUpToTheCapWithoutJitter) {
  RetryPolicy policy;
  policy.backoffBase = microseconds(100);
  policy.backoffCap = microseconds(500);
  policy.jitter = 0.0;
  Rng rng(policy.jitterSeed);
  EXPECT_EQ(policy.backoff(1, rng), microseconds(100));
  EXPECT_EQ(policy.backoff(2, rng), microseconds(200));
  EXPECT_EQ(policy.backoff(3, rng), microseconds(400));
  EXPECT_EQ(policy.backoff(4, rng), microseconds(500));
  EXPECT_EQ(policy.backoff(20, rng), microseconds(500));
}

TEST(RetryPolicy, JitterStaysInBandAndReplaysPerSeed) {
  RetryPolicy policy;  // base 200 us, jitter 0.5
  Rng first(policy.jitterSeed);
  Rng second(policy.jitterSeed);
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    const microseconds a = policy.backoff(attempt, first);
    EXPECT_EQ(a, policy.backoff(attempt, second));
    const double nominal = std::min(
        200.0 * static_cast<double>(1u << (attempt - 1)),
        static_cast<double>(policy.backoffCap.count()));
    EXPECT_GE(a.count(), static_cast<std::int64_t>(nominal * 0.5) - 1);
    EXPECT_LE(a.count(), static_cast<std::int64_t>(nominal * 1.5));
  }
}

}  // namespace
}  // namespace adpm::util
