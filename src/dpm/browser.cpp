#include "dpm/browser.hpp"

#include "constraint/univariate.hpp"

#include <functional>
#include <set>
#include <sstream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace adpm::dpm {

namespace {

/// The value set constraint `c` alone would require of argument `arg`,
/// holding everything else at its current extent.  Set-valued: disjunctive
/// constraints (abs windows, even powers) report their lobes, e.g.
/// "[114, 130] u [220, 236]".  Display-only bookkeeping on state the DCM
/// already surfaced, so it is not charged as an evaluation.
interval::IntervalSet requiredWindow(const DesignProcessManager& dpm,
                                     constraint::ConstraintId cid,
                                     constraint::PropertyId arg) {
  // solveUnivariate does not charge the evaluation counter.
  return constraint::solveUnivariate(dpm.network(), cid, arg);
}

std::string feasibleText(const DesignProcessManager& dpm,
                         constraint::PropertyId pid) {
  if (const constraint::GuidanceReport* g = dpm.latestGuidance()) {
    return g->of(pid).feasible.str();
  }
  // Conventional flow: no propagation, so the browser can only show the
  // initial range (or the bound value).
  const constraint::Property& p = dpm.network().property(pid);
  if (p.bound()) return util::formatNumber(*p.value);
  return p.initial.str();
}

}  // namespace

std::string renderObjectBrowser(const DesignProcessManager& dpm,
                                const std::string& objectName) {
  const DesignObject* obj = dpm.object(objectName);
  std::ostringstream out;
  if (obj == nullptr) {
    out << "Object name: " << objectName << " (unknown)\n";
    return out.str();
  }
  out << "Object name: " << obj->name << "\n";
  out << "Version number: " << obj->version << " (current)\n";
  out << std::string(64, '-') << "\n";
  for (constraint::PropertyId pid : obj->properties) {
    const constraint::Property& p = dpm.network().property(pid);
    out << p.name;
    if (!p.unit.empty()) out << " [" << p.unit << "]";
    out << "\n";
    if (!p.abstractionLevels.empty()) {
      out << "    Abstraction Levels: "
          << util::join(p.abstractionLevels, ",") << "\n";
    }
    out << "    Consistent values: " << feasibleText(dpm, pid);
    if (p.bound()) out << "    (bound: " << util::formatNumber(*p.value) << ")";
    out << "\n";
  }
  return out.str();
}

std::string renderConstraintBrowser(const DesignProcessManager& dpm,
                                    const std::string& designer) {
  const constraint::Network& net = dpm.network();
  const constraint::GuidanceReport* guidance = dpm.latestGuidance();

  // Scope: the designer's objects' properties; empty designer = everything.
  std::set<std::uint32_t> visibleProps;
  for (const std::string& objName : dpm.objectNames()) {
    if (!designer.empty() && dpm.ownerOfObject(objName) != designer) continue;
    const DesignObject* obj = dpm.object(objName);
    for (constraint::PropertyId pid : obj->properties) {
      visibleProps.insert(pid.value);
    }
  }
  std::set<std::uint32_t> visibleCons;
  for (std::uint32_t pv : visibleProps) {
    for (constraint::ConstraintId cid :
         net.constraintsOf(constraint::PropertyId{pv})) {
      visibleCons.insert(cid.value);
    }
  }

  std::ostringstream out;
  out << "CONSTRAINTS\n";
  util::TextTable cons;
  cons.header({"Constraint", "Status", "Relation"});
  const auto& statuses = dpm.knownStatuses();
  for (std::uint32_t cv : visibleCons) {
    if (!net.isActive(constraint::ConstraintId{cv})) continue;
    const constraint::Constraint& c = net.constraint(constraint::ConstraintId{cv});
    std::string status = constraint::statusName(statuses[cv]);
    if (dpm.isStale(constraint::ConstraintId{cv})) status += " (stale)";
    cons.row({c.name(), status, c.str()});
  }
  out << cons.render() << "\n";

  // Fig. 4's top pane: for each violated constraint, the window each
  // argument would have to move into for that constraint alone to hold.
  bool anyViolated = false;
  for (std::uint32_t cv : visibleCons) {
    if (!net.isActive(constraint::ConstraintId{cv})) continue;
    if (statuses[cv] != constraint::Status::Violated) continue;
    const constraint::ConstraintId cid{cv};
    const constraint::Constraint& c = net.constraint(cid);
    if (!anyViolated) {
      out << "REQUIRED WINDOWS (per violated constraint)\n";
      anyViolated = true;
    }
    for (constraint::PropertyId arg : c.arguments()) {
      const constraint::Property& p = net.property(arg);
      const interval::IntervalSet window = requiredWindow(dpm, cid, arg);
      out << "  P." << p.name << "  "
          << (window.empty() ? std::string("<no value works>")
                             : window.str())
          << " required by " << c.name() << "\n";
    }
  }
  if (anyViolated) out << "\n";

  out << "PROPERTIES\n";
  util::TextTable props;
  props.header({"Property", "# c's", "Value/Status", "Object",
                "Connected violations"});
  for (std::uint32_t pv : visibleProps) {
    const constraint::PropertyId pid{pv};
    const constraint::Property& p = net.property(pid);
    const std::string value =
        p.bound() ? util::formatNumber(*p.value) : "<No value assigned>";
    std::string alpha;
    std::string beta = std::to_string(net.constraintsOf(pid).size());
    if (guidance != nullptr) {
      const auto& g = guidance->of(pid);
      if (g.alpha > 0) alpha = std::to_string(g.alpha);
      beta = std::to_string(g.beta);
    }
    props.row({"P." + p.name, beta, value, p.object, alpha});
  }
  out << props.render();
  return out.str();
}

std::string renderProblemTree(const DesignProcessManager& dpm) {
  std::ostringstream out;
  out << "PROBLEMS\n";
  std::function<void(ProblemId, int)> render = [&](ProblemId id, int depth) {
    const DesignProblem& p = dpm.problem(id);
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << p.name
        << "  [" << problemStatusName(p.status) << "]";
    if (!p.owner.empty()) out << "  owner: " << p.owner;
    out << "  outputs: " << p.outputs.size()
        << "  constraints: " << p.constraints.size() << "\n";
    for (const ProblemId child : p.children) render(child, depth + 1);
  };
  for (const ProblemId id : dpm.problemIds()) {
    if (!dpm.problem(id).parent) render(id, 0);
  }
  return out.str();
}

}  // namespace adpm::dpm
