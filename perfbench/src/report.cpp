#include "report.hpp"

#include <cmath>
#include <cstdio>

#include "stats.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (Metric& m : metrics_) {
    if (m.name == name) throw std::logic_error("metric " + name + " twice");
  }
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::addLatency(const std::string& prefix,
                        const std::vector<double>& samples,
                        const std::vector<double>& qs,
                        const std::string& unit) {
  for (double q : qs) {
    const std::string name =
        prefix + "_p" + std::to_string(static_cast<int>(std::lround(q * 100))) +
        "_" + unit;
    add(name, percentile(samples, q, name), unit, samples.size());
  }
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::text() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::snprintf(line, sizeof line, "  %-32s %14.6g %-6s (n=%zu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::snprintf(line, sizeof line, "  %-32s %14.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    }
    out += line;
  }
  return out;
}

std::string Report::json() const {
  namespace json = adpm::util::json;
  json::Value v{json::Object{}};
  for (const Metric& m : metrics_) {
    json::Value entry{json::Object{}};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    if (m.samples > 0) entry.set("samples", m.samples);
    v.set(m.name, std::move(entry));
  }
  return json::serialize(v);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  adpm::util::splitmix64(state);
  return adpm::util::splitmix64(state);
}

}  // namespace perfbench
