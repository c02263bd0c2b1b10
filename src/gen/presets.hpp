// The scenario zoo: checked-in paramfile presets spanning three orders of
// magnitude in constraint count (zoo-toy ~10 constraints, zoo-xl >5000).
//
// Each preset's paramfile is scenarios/zoo/<name>.json, embedded verbatim at
// configure time (scenarios/embedded.hpp), so the same scenario can be
// produced from the CLI (`dddl_tool gen scenarios/zoo/zoo-toy.json`) or from
// code (`zooPreset("zoo-toy")`).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "gen/params.hpp"

namespace adpm::gen {

struct ZooPreset {
  std::string name;
  /// Verbatim paramfile JSON: the embedded scenarios/zoo/<name>.json.
  std::string paramfile;
  std::string description;
};

/// All presets, smallest first.
const std::vector<ZooPreset>& zooPresets();

/// Parsed params for one preset; throws InvalidArgumentError for unknown
/// names.
GenParams zooPreset(const std::string& name);

}  // namespace adpm::gen
