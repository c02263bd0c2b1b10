#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t percentileRank(std::size_t n, double q) {
  if (n == 0) return 0;
  // Guard against q·n landing a hair above an integer through rounding.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samplesBeyond(std::size_t n, double q) {
  return n - percentileRank(n, q);
}

}  // namespace

double percentile(std::vector<double> samples, double q,
                  const std::string& what) {
  const std::size_t n = samples.size();
  if (n == 0 || samplesBeyond(n, q) < kTailSupport) {
    throw UnsupportedPercentile(
        what + ": " + std::to_string(n) + " samples leave " +
        std::to_string(n == 0 ? 0 : samplesBeyond(n, q)) +
        " beyond p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        " (need " + std::to_string(kTailSupport) + ")");
  }
  const std::size_t rank = percentileRank(n, q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
