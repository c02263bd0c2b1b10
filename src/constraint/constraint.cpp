#include "constraint/constraint.hpp"

#include <algorithm>

#include "expr/simplify.hpp"
#include "util/error.hpp"

namespace adpm::constraint {

const char* relationSymbol(Relation r) noexcept {
  switch (r) {
    case Relation::Le: return "<=";
    case Relation::Ge: return ">=";
    case Relation::Eq: return "==";
  }
  return "?";
}

const char* statusName(Status s) noexcept {
  switch (s) {
    case Status::Satisfied: return "Satisfied";
    case Status::Violated: return "Violated";
    case Status::Consistent: return "Consistent";
  }
  return "?";
}

Constraint::Constraint(ConstraintId id, std::string name, expr::Expr lhs,
                       Relation rel, expr::Expr rhs)
    : id_(id),
      name_(std::move(name)),
      lhs_(std::move(lhs)),
      rel_(rel),
      rhs_(std::move(rhs)) {
  if (!lhs_.valid() || !rhs_.valid()) {
    throw adpm::InvalidArgumentError("Constraint '" + name_ +
                                     "': invalid expression");
  }
  // Simplifying the residual shrinks the compiled node count: every folded
  // node is a projection saved in each of the many HC4 revises to come.
  residual_ = expr::simplify(lhs_ - rhs_);
  compiled_ = std::make_unique<expr::CompiledExpr>(residual_);
  args_.reserve(compiled_->variables().size());
  for (expr::VarId v : compiled_->variables()) {
    args_.push_back(PropertyId{v});
  }
  reviseTrace_ = ReviseTrace(args_.size());
}

void Constraint::ReviseTrace::record(
    std::size_t k, std::span<const interval::Interval> before,
    std::span<const interval::Interval> after, Outcome outcome) {
  if (k >= kSlots || k > outcomes_.size()) return;
  if (k == outcomes_.size()) {
    // Grow by whole chunks of slots, not by doubling: most traces on the
    // generated networks fill all kSlots, and a doubled buffer would hold
    // a third more than that.
    if (k == outcomes_.capacity()) {
      constexpr std::size_t kChunk = 8;
      const std::size_t slots = std::min(kSlots, k + kChunk);
      outcomes_.reserve(slots);
      io_.reserve(slots * 2 * arity_);
    }
    outcomes_.emplace_back();
    io_.resize(io_.size() + 2 * arity_);
  }
  outcomes_[k] = outcome;
  interval::Interval* in = io_.data() + k * 2 * arity_;
  std::copy(before.begin(), before.end(), in);
  if (outcome.narrowed) std::copy(after.begin(), after.end(), in + arity_);
}

interval::Interval Constraint::target() const noexcept {
  switch (rel_) {
    case Relation::Le: return interval::Interval::nonPositive();
    case Relation::Ge: return interval::Interval::nonNegative();
    case Relation::Eq: return interval::Interval(0.0);
  }
  return interval::Interval::emptySet();
}

bool Constraint::involves(PropertyId p) const noexcept {
  return std::find(args_.begin(), args_.end(), p) != args_.end();
}

void Constraint::declareHelpDirection(PropertyId p, bool increaseHelps) {
  if (!involves(p)) {
    throw adpm::InvalidArgumentError(
        "Constraint '" + name_ +
        "': monotonicity declared for a property that is not an argument");
  }
  declaredHelp_[p] = increaseHelps ? 1 : -1;
}

int Constraint::declaredHelpDirection(PropertyId p) const noexcept {
  const auto it = declaredHelp_.find(p);
  return it == declaredHelp_.end() ? 0 : it->second;
}

std::string Constraint::str() const {
  return lhs_.str() + " " + relationSymbol(rel_) + " " + rhs_.str();
}

Status classify(const interval::Interval& residual,
                const interval::Interval& target) noexcept {
  if (!residual.intersects(target)) return Status::Violated;
  if (target.contains(residual)) return Status::Satisfied;
  return Status::Consistent;
}

}  // namespace adpm::constraint
