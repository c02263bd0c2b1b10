#include "gen/registry.hpp"

#include "dddl/parser.hpp"
#include "gen/generator.hpp"
#include "gen/presets.hpp"
#include "scenarios/embedded.hpp"
#include "util/error.hpp"

namespace adpm::gen {

const std::vector<RegistryEntry>& scenarioRegistry() {
  static const std::vector<RegistryEntry> entries = [] {
    std::vector<RegistryEntry> out = {
        {"sensing", "builtin", "sensing-system walkthrough case (paper §4.1)"},
        {"receiver", "builtin", "MEMS receiver case, 2 designers"},
        {"receiver4", "builtin", "MEMS receiver case, 4-designer team"},
        {"accelerometer", "builtin", "MEMS accelerometer case"},
        {"walkthrough", "builtin", "minimal two-property walkthrough"},
    };
    for (const ZooPreset& preset : zooPresets()) {
      out.push_back({preset.name, "generated", preset.description});
    }
    return out;
  }();
  return entries;
}

dpm::ScenarioSpec scenarioByName(const std::string& name) {
  for (const RegistryEntry& entry : scenarioRegistry()) {
    if (entry.name == name && entry.kind == "builtin") {
      return dddl::parse(scenarios::embeddedText(name + ".dddl"));
    }
  }
  for (const ZooPreset& preset : zooPresets()) {
    if (preset.name == name) {
      return generate(parseParams(preset.paramfile)).spec;
    }
  }
  throw InvalidArgumentError("unknown scenario '" + name + "' (expected " +
                             registeredScenarioNames() + ")");
}

bool isRegisteredScenario(const std::string& name) {
  for (const RegistryEntry& entry : scenarioRegistry()) {
    if (entry.name == name) return true;
  }
  return false;
}

std::string registeredScenarioNames() {
  std::string out;
  for (const RegistryEntry& entry : scenarioRegistry()) {
    if (!out.empty()) out += ", ";
    out += entry.name;
  }
  return out;
}

}  // namespace adpm::gen
