// Sample statistics with an honesty rule for tails.
//
// A percentile is reported only when at least kTailSupport samples lie
// strictly beyond it; a run too short for the percentile it names throws
// UnsupportedPercentile instead of printing a number drawn from a handful
// of samples.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSupport = 10;

class UnsupportedPercentile : public std::runtime_error {
 public:
  explicit UnsupportedPercentile(const std::string& what)
      : std::runtime_error(what) {}
};

/// Nearest-rank percentile (0 < q < 1) of `samples`: the sample at rank r,
/// the smallest r >= q·n.  Throws UnsupportedPercentile when fewer than
/// kTailSupport samples lie beyond rank r.  `what` names the metric in the
/// error.
double percentile(std::vector<double> samples, double q,
                  const std::string& what);

/// Plain median (mean of the middle two for even n); for repeated set-up
/// timings, where the support rule does not apply.  Throws on empty input.
double median(std::vector<double> samples);

}  // namespace perfbench
