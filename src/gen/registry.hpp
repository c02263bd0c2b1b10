// One scenario registry for every front-end.
//
// teamsim_cli, session_service_cli, session_server_cli and dddl_tool each
// used to carry their own name -> ScenarioSpec table; this registry is the
// single source, covering both the paper's design cases and the generated
// zoo presets (src/gen/presets.hpp).  Both come from the committed files
// embedded at build time (scenarios/embedded.hpp): a built-in is parsed from
// scenarios/<name>.dddl, a generated entry is produced on demand from its
// paramfile and is byte-deterministic.
#pragma once

#include <string>
#include <vector>

#include "dpm/scenario.hpp"
#include "gen/params.hpp"

namespace adpm::gen {

struct RegistryEntry {
  std::string name;
  /// "builtin" (scenarios/<name>.dddl) or "generated" (zoo preset).
  std::string kind;
  std::string description;
};

/// All registered scenarios: the five built-in cases followed by the zoo
/// presets, in registration order.
const std::vector<RegistryEntry>& scenarioRegistry();

/// Builds the named scenario (DDDL parse of a built-in or preset generation).
/// Throws InvalidArgumentError for unknown names, listing what exists.
dpm::ScenarioSpec scenarioByName(const std::string& name);

/// True when `name` is registered.
bool isRegisteredScenario(const std::string& name);

/// Comma-separated registered names (for usage strings).
std::string registeredScenarioNames();

}  // namespace adpm::gen
