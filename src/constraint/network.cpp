#include "constraint/network.hpp"

#include <utility>

#include "util/error.hpp"

namespace adpm::constraint {

PropertyId Network::addProperty(PropertySpec spec) {
  if (findProperty(spec.name)) {
    throw adpm::InvalidArgumentError("duplicate property name '" + spec.name +
                                     "'");
  }
  const PropertyId id{static_cast<std::uint32_t>(properties_.size())};
  Property p;
  p.id = id;
  p.name = std::move(spec.name);
  p.object = std::move(spec.object);
  p.initial = std::move(spec.initial);
  p.unit = std::move(spec.unit);
  p.abstractionLevels = std::move(spec.abstractionLevels);
  p.preference = spec.preference;
  properties_.push_back(std::move(p));
  byProperty_.emplace_back();
  ++generation_;
  return id;
}

ConstraintId Network::addConstraint(std::string name, expr::Expr lhs,
                                    Relation rel, expr::Expr rhs,
                                    bool active) {
  if (findConstraint(name)) {
    throw adpm::InvalidArgumentError("duplicate constraint name '" + name +
                                     "'");
  }
  const ConstraintId id{static_cast<std::uint32_t>(constraints_.size())};
  auto c = std::make_unique<Constraint>(id, std::move(name), std::move(lhs),
                                        rel, std::move(rhs));
  for (PropertyId arg : c->arguments()) {
    if (arg.value >= properties_.size()) {
      throw adpm::InvalidArgumentError(
          "constraint '" + c->name() + "' references unknown property id " +
          std::to_string(arg.value));
    }
    byProperty_[arg.value].push_back(id);
  }
  constraints_.push_back(std::move(c));
  active_.push_back(active);
  ++generation_;
  return id;
}

bool Network::isActive(ConstraintId c) const {
  if (c.value >= active_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  return active_[c.value];
}

void Network::activate(ConstraintId c) {
  if (c.value >= active_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  if (!active_[c.value]) ++generation_;
  active_[c.value] = true;
}

std::size_t Network::activeConstraintCount() const noexcept {
  std::size_t n = 0;
  for (const bool a : active_) n += a ? 1 : 0;
  return n;
}

expr::Expr Network::var(PropertyId p) const {
  return expr::Expr::variable(p.value, property(p).name);
}

const Property& Network::property(PropertyId p) const {
  if (p.value >= properties_.size()) {
    throw adpm::InvalidArgumentError("unknown property id " +
                                     std::to_string(p.value));
  }
  return properties_[p.value];
}

const Constraint& Network::constraint(ConstraintId c) const {
  if (c.value >= constraints_.size()) {
    throw adpm::InvalidArgumentError("unknown constraint id " +
                                     std::to_string(c.value));
  }
  return *constraints_[c.value];
}

Constraint& Network::constraint(ConstraintId c) {
  return const_cast<Constraint&>(std::as_const(*this).constraint(c));
}

std::optional<PropertyId> Network::findProperty(
    std::string_view name) const noexcept {
  for (const auto& p : properties_) {
    if (p.name == name) return p.id;
  }
  return std::nullopt;
}

std::optional<ConstraintId> Network::findConstraint(
    std::string_view name) const noexcept {
  for (const auto& c : constraints_) {
    if (c->name() == name) return c->id();
  }
  return std::nullopt;
}

const std::vector<ConstraintId>& Network::constraintsOf(PropertyId p) const {
  if (p.value >= byProperty_.size()) {
    throw adpm::InvalidArgumentError("unknown property id " +
                                     std::to_string(p.value));
  }
  return byProperty_[p.value];
}

std::vector<PropertyId> Network::propertyIds() const {
  std::vector<PropertyId> ids;
  ids.reserve(properties_.size());
  for (const auto& p : properties_) ids.push_back(p.id);
  return ids;
}

std::vector<ConstraintId> Network::constraintIds() const {
  std::vector<ConstraintId> ids;
  ids.reserve(constraints_.size());
  for (const auto& c : constraints_) ids.push_back(c->id());
  return ids;
}

void Network::bind(PropertyId p, double v) {
  (void)property(p);  // throws on an unknown id
  properties_[p.value].value = v;
  ++generation_;
}

void Network::unbind(PropertyId p) {
  (void)property(p);
  properties_[p.value].value.reset();
  ++generation_;
}

std::vector<interval::Interval> Network::currentBox() const {
  std::vector<interval::Interval> box;
  box.reserve(properties_.size());
  for (const auto& p : properties_) box.push_back(p.currentHull());
  return box;
}

Status Network::evaluate(ConstraintId c) {
  if (!isActive(c)) {
    throw adpm::InvalidArgumentError(
        "evaluate: constraint '" + constraint(c).name() +
        "' has not been generated yet");
  }
  Constraint& con = constraint(c);
  const auto box = currentBox();
  const interval::Interval value = con.compiled().evaluate(box);
  ++evaluations_;
  return classify(value, tolerancedTarget(con.target(), value));
}

std::vector<Status> Network::evaluate(const std::vector<ConstraintId>& ids) {
  std::vector<Status> out;
  out.reserve(ids.size());
  for (ConstraintId id : ids) out.push_back(evaluate(id));
  return out;
}

void Network::forgetReviseTraces() noexcept {
  for (const auto& c : constraints_) c->reviseTrace().forget();
}

}  // namespace adpm::constraint
