#include "gen/presets.hpp"

#include "scenarios/embedded.hpp"
#include "util/error.hpp"

namespace adpm::gen {

const std::vector<ZooPreset>& zooPresets() {
  static const std::vector<ZooPreset> presets = [] {
    const std::pair<std::string, std::string> table[] = {
        {"zoo-toy", "2 flat subsystems, ~11 constraints"},
        {"zoo-small", "5 flat subsystems, ~60 constraints"},
        {"zoo-medium", "6 subsystems, 1 zoom level, ~300 constraints"},
        {"zoo-large", "10 subsystems, 2 zoom levels, ~1500 constraints"},
        {"zoo-xl", "20 subsystems, 2 zoom levels, >5000 constraints"},
    };
    std::vector<ZooPreset> out;
    for (const auto& [name, description] : table) {
      const std::string_view paramfile =
          scenarios::embeddedText("zoo/" + name + ".json");
      out.push_back({name, std::string(paramfile), description});
    }
    return out;
  }();
  return presets;
}

GenParams zooPreset(const std::string& name) {
  for (const ZooPreset& preset : zooPresets()) {
    if (preset.name == name) return parseParams(preset.paramfile);
  }
  std::string known;
  for (const ZooPreset& preset : zooPresets()) {
    if (!known.empty()) known += ", ";
    known += preset.name;
  }
  throw InvalidArgumentError("unknown zoo preset '" + name + "' (expected " +
                             known + ")");
}

}  // namespace adpm::gen
