// Named metrics of one run, printed for people and as one machine-readable
// line, plus the workload entry points and their shared configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// An output of the program under test disagreed with its oracle.  The run
/// aborts with a nonzero exit and prints no metric.
class CorrectnessError : public std::runtime_error {
 public:
  explicit CorrectnessError(const std::string& what)
      : std::runtime_error(what) {}
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< latency metrics: samples the value rests on
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0);

  /// `<prefix>_p<NN>_<unit>` for each percentile in `qs` over `samples`
  /// (support rule in stats.hpp: throws when a tail is unsupported).
  void addLatency(const std::string& prefix,
                  const std::vector<double>& samples,
                  const std::vector<double>& qs,
                  const std::string& unit = "ms");

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const Metric* find(const std::string& name) const;

  /// Human-readable lines ("name  value unit  (n=samples)").
  std::string text() const;
  /// {"name":{"value":v,"unit":u[,"samples":n]},...}
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
};

/// Set-up is repeated this many times per run and setup_s is the median.
inline constexpr int kSetupRepeats = 11;

/// Whether teamsim repeats its set-up after timed round
/// `round` (0-based) of `rounds`.  The first set-up runs before the timed
/// part; the other kSetupRepeats - 1 are spread evenly over it, so setup_s
/// samples the host over the whole run, as the timed metrics do.  A run
/// with fewer rounds tops up its repeats after the last round.
inline bool setupRepeatDue(std::size_t round, std::size_t rounds) {
  const std::size_t more = kSetupRepeats - 1;
  return (round + 1) * more / rounds > round * more / rounds;
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// session_server_cli --threads, and load connections (wire workloads).
  unsigned serverThreads = 2;
  unsigned connections = 2;
  /// Tiny configuration (zoo-toy, one connection) for the self-tests.
  bool smoke = false;
  /// Self-test hook: corrupt one shadow digest so the gate must fire.
  bool injectDigestMismatch = false;
  std::string serverBinary;
  /// Scratch space (temp WAL dirs, trace output) inside the checkout.
  std::string workDir = ".bench_tmp";
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Report endToEnd;
  Report perLayer;
};

/// Seed for stream `stream` of a workload seed (splitmix64 of both).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

Outcome runTeamsim(const Config& config, Tracer& tracer);
/// wire-sensing (churn = false) and wire-open-churn (churn = true).
Outcome runWire(const Config& config, Tracer& tracer, bool churn);
Outcome runRestart(const Config& config, Tracer& tracer);

}  // namespace perfbench
