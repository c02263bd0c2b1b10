#include "expr/derivative.hpp"

namespace adpm::expr {

using interval::Interval;

const char* directionName(Direction d) noexcept {
  switch (d) {
    case Direction::None: return "none";
    case Direction::Constant: return "constant";
    case Direction::Increasing: return "increasing";
    case Direction::Decreasing: return "decreasing";
    case Direction::Unknown: return "unknown";
  }
  return "?";
}

Direction directionOf(const interval::Interval& derivative) noexcept {
  const Interval& d = derivative;
  if (d.empty()) return Direction::Unknown;
  if (d.lo() == 0.0 && d.hi() == 0.0) return Direction::Constant;
  if (d.lo() >= 0.0) return Direction::Increasing;
  if (d.hi() <= 0.0) return Direction::Decreasing;
  return Direction::Unknown;
}

}  // namespace adpm::expr
