#include "constraint/univariate.hpp"

#include <vector>

namespace adpm::constraint {

interval::IntervalSet solveUnivariate(const Network& net, ConstraintId c,
                                      PropertyId arg,
                                      const UnivariateOptions& options) {
  const Constraint& con = net.constraint(c);
  auto box = net.currentBox();
  const interval::Interval range = net.property(arg).initial.hull();
  if (range.empty() || !range.isBounded()) {
    // Unbounded ranges cannot be sliced uniformly; fall back to one revise.
    box[arg.value] = range;
    const auto r =
        con.compiled().revisePadded(con.target(), {box.data(), box.size()});
    return r.feasible ? interval::IntervalSet(box[arg.value])
                      : interval::IntervalSet();
  }

  const int slices = std::max(options.slices, 1);
  const double width = range.width();
  std::vector<interval::Interval> feasible;

  for (int i = 0; i < slices; ++i) {
    interval::Interval slice(range.lo() + width * i / slices,
                             range.lo() + width * (i + 1) / slices);
    auto working = box;
    working[arg.value] = slice;
    const auto r = con.compiled().revisePadded(
        con.target(), {working.data(), working.size()});
    if (!r.feasible) continue;
    // Refine the slice a few times to tighten lobe edges, reusing the
    // slice's padded target.
    interval::Interval kept = working[arg.value];
    for (int step = 0; step < options.refinements; ++step) {
      auto inner = box;
      inner[arg.value] = kept;
      const auto rr =
          con.compiled().revise(r.target, {inner.data(), inner.size()});
      if (!rr.feasible) break;
      if (inner[arg.value] == kept) break;
      kept = inner[arg.value];
    }
    feasible.push_back(kept);
  }
  return interval::IntervalSet::fromPieces(std::move(feasible));
}

}  // namespace adpm::constraint
