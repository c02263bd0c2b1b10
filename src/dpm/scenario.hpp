// Scenario specifications: the problem-scenario description instantiated by
// TeamSim's initialisation script.
//
// "Each simulation has an initial problem scenario given by a top-level
// problem formulation, an initial decomposition into subproblems, a set of
// designers, an assignment of subproblems to designers, and initial values
// for top-level requirements." (paper, Section 3.1.2)
//
// A ScenarioSpec is a plain-data description: it is parsed from DDDL text
// (src/dddl) or synthesised by the generator (src/gen).  Indices within
// the spec are positional; instantiation into an empty DesignProcessManager
// maps property index i to PropertyId{i}, constraint index j to
// ConstraintId{j}, and problem index k to ProblemId{k}.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "constraint/constraint.hpp"
#include "dpm/manager.hpp"
#include "interval/domain.hpp"

namespace adpm::dpm {

struct ScenarioSpec {
  struct Object {
    std::string name;
    std::string parent;  // empty = root
  };

  struct Prop {
    std::string name;
    std::string object;
    interval::Domain initial;
    std::string unit;
    std::vector<std::string> levels;
    /// -1 prefer small values, +1 prefer large, 0 none (DDDL "prefer").
    int preference = 0;
  };

  struct Cons {
    std::string name;
    /// Variable ids inside lhs/rhs are indices into `properties`.
    expr::Expr lhs;
    constraint::Relation rel = constraint::Relation::Le;
    expr::Expr rhs;
    /// Declared monotonicity: (property index, true = increasing the
    /// property helps satisfy the constraint).
    std::vector<std::pair<std::size_t, bool>> monotone;
    /// When set, the constraint is *generated* by the DPM once this problem
    /// (index) enters the process (paper §2.2), rather than existing from
    /// the initial state.
    std::optional<std::size_t> generatedBy;
  };

  struct Prob {
    std::string name;
    std::string object;
    std::string owner;
    std::vector<std::size_t> inputs;       // property indices
    std::vector<std::size_t> outputs;      // property indices
    std::vector<std::size_t> constraints;  // constraint indices
    std::optional<std::size_t> parent;     // problem index
    std::vector<std::size_t> predecessors; // problem indices
    bool startReady = true;
  };

  struct Requirement {
    std::size_t property;  // property index
    double value;
  };

  std::string name;
  std::vector<Object> objects;
  std::vector<Prop> properties;
  std::vector<Cons> constraints;
  std::vector<Prob> problems;
  std::vector<Requirement> requirements;

  // -- builder helpers --------------------------------------------------------

  std::size_t addObject(std::string objName, std::string parent = "");
  std::size_t addProperty(std::string propName, std::string object,
                          interval::Domain initial, std::string unit = "",
                          std::vector<std::string> levels = {});
  std::size_t addConstraint(Cons c);
  std::size_t addProblem(Prob p);
  void require(std::size_t property, double value);

  /// Expression variable for property index i (named after the property).
  expr::Expr pvar(std::size_t i) const;

  std::optional<std::size_t> propertyIndex(std::string_view propName) const;
  std::optional<std::size_t> constraintIndex(std::string_view consName) const;
  std::optional<std::size_t> problemIndex(std::string_view probName) const;

  /// Structural validation; returns human-readable problems (empty = valid).
  std::vector<std::string> validate() const;
};

/// Instantiates a spec into an empty manager (throws if the manager already
/// holds properties, or if the spec fails validation).
void instantiate(const ScenarioSpec& spec, DesignProcessManager& dpm);

}  // namespace adpm::dpm
