// The committed scenario files, embedded verbatim at configure time.
//
// scenarios/*.dddl (the built-in design cases) and scenarios/zoo/*.json (the
// zoo paramfiles) are the only scenario source: src/scenarios/CMakeLists.txt
// compiles each file into this library as a raw string literal.  gen/registry
// parses the DDDL into specs; gen/presets hands out the paramfiles.
#pragma once

#include <string_view>

namespace adpm::scenarios {

/// The bytes of scenarios/<path> (e.g. "receiver.dddl", "zoo/zoo-toy.json")
/// as committed when the build was configured.  Throws InvalidArgumentError
/// for a path that is not embedded.
std::string_view embeddedText(std::string_view path);

}  // namespace adpm::scenarios
