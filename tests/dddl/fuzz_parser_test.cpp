// Parser robustness under mutation: random corruptions of a valid scenario
// must either parse (if the mutation happens to stay valid) or throw
// adpm::ParseError / adpm::InvalidArgumentError — never crash, hang, or
// throw anything else.
#include <gtest/gtest.h>

#include <string>

#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace adpm::dddl {
namespace {

std::string mutate(std::string text, util::Rng& rng) {
  if (text.empty()) return text;
  const int kind = static_cast<int>(rng.index(5));
  const std::size_t pos = rng.index(text.size());
  static const char kBytes[] =
      "{}[]();:,=+-*/^<>\"abcdefgXYZ0123456789. \n";
  const char b = kBytes[rng.index(sizeof(kBytes) - 1)];
  switch (kind) {
    case 0:  // flip one character
      text[pos] = b;
      break;
    case 1:  // delete one character
      text.erase(pos, 1);
      break;
    case 2:  // insert one character
      text.insert(pos, 1, b);
      break;
    case 3: {  // delete a whole chunk
      const std::size_t len = 1 + rng.index(40);
      text.erase(pos, std::min(len, text.size() - pos));
      break;
    }
    default: {  // duplicate a chunk elsewhere
      const std::size_t len = 1 + rng.index(20);
      const std::string chunk = text.substr(pos, len);
      text.insert(rng.index(text.size()), chunk);
      break;
    }
  }
  return text;
}

class ParserMutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserMutationFuzz, NeverCrashesOnCorruptedInput) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 15101);
  const std::string pristine = write(gen::scenarioByName("walkthrough"));

  for (int iter = 0; iter < 400; ++iter) {
    std::string text = pristine;
    const int mutations = 1 + static_cast<int>(rng.index(8));
    for (int m = 0; m < mutations; ++m) text = mutate(std::move(text), rng);

    try {
      const dpm::ScenarioSpec spec = parse(text);
      // If it parsed, it must also validate (parse() runs validate()).
      EXPECT_TRUE(spec.validate().empty());
    } catch (const adpm::ParseError&) {
      // expected for most mutations
    } catch (const adpm::InvalidArgumentError&) {
      // e.g. duplicate names introduced by a duplicated chunk
    }
    // Any other exception type or a crash fails the test by escaping.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutationFuzz,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace adpm::dddl
