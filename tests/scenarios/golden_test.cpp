// Golden tests for the built-in design cases and the zoo paramfiles.
//
// scenarios/*.dddl and scenarios/zoo/*.json are the only scenario source;
// the build embeds them (scenarios/embedded.hpp).  These tests pin both
// their bytes and their behaviour: the tables were captured from the
// hand-written C++ builders that the DDDL files replaced, so a drifting row
// means an edit to a committed file (or to the parser, the engine or the
// designer model) changed what the paper's figures are computed from.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>

#include "dddl/writer.hpp"
#include "gen/params.hpp"
#include "gen/presets.hpp"
#include "gen/registry.hpp"
#include "scenarios/embedded.hpp"
#include "service/session.hpp"
#include "teamsim/engine.hpp"
#include "util/strings.hpp"

namespace adpm {
namespace {

std::optional<std::string> readSourceFile(const std::string& path) {
  // CTest runs in the build tree; ADPM_SOURCE_DIR names the source tree.
  std::ifstream in(std::string(ADPM_SOURCE_DIR) + "/scenarios/" + path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Outcome {
  std::size_t operations;
  std::size_t evaluations;
  std::uint64_t digest;  // fnv1a64 of the final service::snapshotText
};

Outcome simulate(const dpm::ScenarioSpec& spec, bool adpm, std::uint64_t seed,
                 std::size_t maxOperations = 0) {
  teamsim::SimulationOptions options;
  options.adpm = adpm;
  options.seed = seed;
  if (maxOperations > 0) options.maxOperations = maxOperations;
  teamsim::SimulationEngine engine(spec, options);
  const teamsim::SimulationResult r = engine.run();
  return {r.operations, r.evaluations,
          util::fnv1a64(service::snapshotText(engine.manager()))};
}

struct GoldenRun {
  const char* scenario;
  bool adpm;
  std::uint64_t seed;
  std::size_t operations;
  std::size_t evaluations;
  std::uint64_t digest;
};

// Seeds 1..20 per scenario and flow.
const GoldenRun kRuns[] = {
    {"sensing", true, 1, 24, 1466, 0x6321781941d3e28aull},
    {"sensing", true, 2, 34, 1796, 0x22c540b87ee96a2full},
    {"sensing", true, 3, 23, 2334, 0x611dafe864445f37ull},
    {"sensing", true, 4, 33, 1857, 0x779024401006aba8ull},
    {"sensing", true, 5, 23, 774, 0x8d07ef127273e5acull},
    {"sensing", true, 6, 24, 1029, 0xc900c6d8f8dda1ceull},
    {"sensing", true, 7, 24, 2463, 0x0dd55d67b21de27dull},
    {"sensing", true, 8, 24, 1067, 0x63a8d63a9311ae26ull},
    {"sensing", true, 9, 24, 1175, 0x2fdbc4c7d192d1d6ull},
    {"sensing", true, 10, 23, 2333, 0xa4c7424983d04baaull},
    {"sensing", true, 11, 24, 957, 0x50e4c8f70e6be131ull},
    {"sensing", true, 12, 25, 2203, 0x18d1bc5426726c05ull},
    {"sensing", true, 13, 23, 1356, 0xd8083d978a72a1f1ull},
    {"sensing", true, 14, 23, 754, 0x7f62c456e8890a2full},
    {"sensing", true, 15, 23, 1503, 0x9d7171ffe3c74c3aull},
    {"sensing", true, 16, 45, 3328, 0xe9ddd2a2cc288153ull},
    {"sensing", true, 17, 23, 1924, 0x2acedd650d3122f5ull},
    {"sensing", true, 18, 26, 1070, 0x9fa17d967b0602f9ull},
    {"sensing", true, 19, 24, 1671, 0xbd8a0e673d2fdeb9ull},
    {"sensing", true, 20, 32, 1448, 0x9fa1c4a802f54e71ull},
    {"sensing", false, 1, 489, 1338, 0x8ca4b5d0adea1d77ull},
    {"sensing", false, 2, 57, 109, 0x3c41f090ef63ae5dull},
    {"sensing", false, 3, 110, 265, 0x257f4c02262801ceull},
    {"sensing", false, 4, 101, 232, 0xbe1bf8b82ce9e1b6ull},
    {"sensing", false, 5, 60, 118, 0x1c036f549136bfb1ull},
    {"sensing", false, 6, 42, 76, 0x368781105e1dbbf6ull},
    {"sensing", false, 7, 40, 61, 0x4f453be4ff4bb850ull},
    {"sensing", false, 8, 86, 180, 0xd69ba6f0f538c033ull},
    {"sensing", false, 9, 49, 91, 0xbdb4d3101f646d04ull},
    {"sensing", false, 10, 78, 153, 0x533aa1b2235e3089ull},
    {"sensing", false, 11, 33, 45, 0x38e4a4408b0a8498ull},
    {"sensing", false, 12, 82, 186, 0x3028e0ecca1ff2d6ull},
    {"sensing", false, 13, 208, 540, 0xef8b417b559f421eull},
    {"sensing", false, 14, 306, 815, 0xdf06e95299448fdfull},
    {"sensing", false, 15, 113, 265, 0xdb5a7f2317f1a211ull},
    {"sensing", false, 16, 265, 705, 0x47ae7065a3059eb8ull},
    {"sensing", false, 17, 85, 185, 0x27d04b17acee718cull},
    {"sensing", false, 18, 55, 109, 0xba599d5e0de9c014ull},
    {"sensing", false, 19, 32, 38, 0xb186777b66ed39cdull},
    {"sensing", false, 20, 69, 139, 0x10d6d4f372281916ull},
    {"receiver", true, 1, 30, 1576, 0xc6905c875876a6e3ull},
    {"receiver", true, 2, 29, 1389, 0x569f76c61ab9b329ull},
    {"receiver", true, 3, 29, 1439, 0x3b26e579c002332cull},
    {"receiver", true, 4, 30, 1605, 0x21a40d3f0ab6fb6aull},
    {"receiver", true, 5, 31, 1989, 0x0a0945afe7f88c2bull},
    {"receiver", true, 6, 29, 1433, 0x8f5cab9862b5c2b7ull},
    {"receiver", true, 7, 29, 1375, 0xfb4e10cf1e2764e3ull},
    {"receiver", true, 8, 30, 1605, 0x725f57c9bbbffa6cull},
    {"receiver", true, 9, 29, 1388, 0x096ea88efb30306full},
    {"receiver", true, 10, 29, 1381, 0xada17bceed018f2cull},
    {"receiver", true, 11, 29, 1439, 0xf3a7bcc352189c0eull},
    {"receiver", true, 12, 30, 1608, 0x2a361fc1d960c3a9ull},
    {"receiver", true, 13, 29, 1382, 0x64b1578ebafb348aull},
    {"receiver", true, 14, 29, 1442, 0x188a5b1a850abc5cull},
    {"receiver", true, 15, 30, 1544, 0xab2283c368ef45e3ull},
    {"receiver", true, 16, 29, 1412, 0x01e43723ba4dd828ull},
    {"receiver", true, 17, 29, 1381, 0xfad437f206957aa6ull},
    {"receiver", true, 18, 29, 1436, 0x5ac41996ccd8ab46ull},
    {"receiver", true, 19, 29, 1445, 0x86533cb2b51b661eull},
    {"receiver", true, 20, 29, 1472, 0x8ca72973d08eaf19ull},
    {"receiver", false, 1, 149, 470, 0x6c7acc2fdff7d593ull},
    {"receiver", false, 2, 89, 220, 0x724f1df2d2cdea4full},
    {"receiver", false, 3, 191, 610, 0x742469ac1ead0f7eull},
    {"receiver", false, 4, 193, 686, 0xcb4e280e1315d60full},
    {"receiver", false, 5, 163, 588, 0xb367506aba20f908ull},
    {"receiver", false, 6, 67, 162, 0xc56b954a6a235879ull},
    {"receiver", false, 7, 307, 1068, 0x2563424342b7b36eull},
    {"receiver", false, 8, 110, 306, 0xd8206f3045846e87ull},
    {"receiver", false, 9, 153, 498, 0x984df2403f6dfdd0ull},
    {"receiver", false, 10, 192, 618, 0xf0a54395ff704f1full},
    {"receiver", false, 11, 123, 340, 0xe09fe61904b56908ull},
    {"receiver", false, 12, 54, 114, 0x598fc225b2de1e1aull},
    {"receiver", false, 13, 100, 272, 0x13cc5ed63e766d32ull},
    {"receiver", false, 14, 192, 612, 0x6f4b071fcd615723ull},
    {"receiver", false, 15, 119, 336, 0x49f2291ae2128677ull},
    {"receiver", false, 16, 322, 1072, 0xa8812cf8e0a8b665ull},
    {"receiver", false, 17, 144, 436, 0x0249f31004447eecull},
    {"receiver", false, 18, 76, 214, 0x252e78754e3fae81ull},
    {"receiver", false, 19, 137, 370, 0x2f94e904422aeeadull},
    {"receiver", false, 20, 185, 568, 0x65f8cfc62baa8ff2ull},
    {"receiver4", true, 1, 29, 1633, 0x67b1c41bc4aaf1fbull},
    {"receiver4", true, 2, 29, 1611, 0x897354bf717be05full},
    {"receiver4", true, 3, 30, 1722, 0x983b3445e18d4bc5ull},
    {"receiver4", true, 4, 29, 1640, 0x0bd9f709927d106dull},
    {"receiver4", true, 5, 29, 1596, 0x6a4d5b6e1473fb94ull},
    {"receiver4", true, 6, 29, 1634, 0x36720da992f31da5ull},
    {"receiver4", true, 7, 29, 1576, 0x79fb568664fb617cull},
    {"receiver4", true, 8, 29, 1632, 0xac0fafebec11f2feull},
    {"receiver4", true, 9, 29, 1528, 0xaf7121055fa0c235ull},
    {"receiver4", true, 10, 29, 1520, 0x49981790f6e5fc25ull},
    {"receiver4", true, 11, 29, 1625, 0x21586d0d57958c6aull},
    {"receiver4", true, 12, 30, 1759, 0xf70a1e52b82648d6ull},
    {"receiver4", true, 13, 29, 1595, 0x19327245a85e4b1eull},
    {"receiver4", true, 14, 29, 1506, 0xa0f5f198b630fddcull},
    {"receiver4", true, 15, 29, 1551, 0x978f1bc8ee34e22aull},
    {"receiver4", true, 16, 30, 1767, 0x66fd19904b0c62bfull},
    {"receiver4", true, 17, 29, 1517, 0x8606ea918e1c479cull},
    {"receiver4", true, 18, 29, 1588, 0xbe7030d1c734225bull},
    {"receiver4", true, 19, 29, 1487, 0xfc80aa4e89e9e8e0ull},
    {"receiver4", true, 20, 29, 1670, 0xd0b2ec45b9be7bf8ull},
    {"receiver4", false, 1, 266, 827, 0x4809c0940eba1301ull},
    {"receiver4", false, 2, 181, 439, 0x3c1d89d584296944ull},
    {"receiver4", false, 3, 324, 909, 0xb689b8320c97c355ull},
    {"receiver4", false, 4, 260, 773, 0x534d2f7a586ebd6cull},
    {"receiver4", false, 5, 174, 493, 0xcb53561e46b34e77ull},
    {"receiver4", false, 6, 114, 277, 0x3781a1a6de18b1d1ull},
    {"receiver4", false, 7, 397, 1188, 0x64b0e51ca0281b1dull},
    {"receiver4", false, 8, 311, 913, 0x3e1fa1bca685a704ull},
    {"receiver4", false, 9, 216, 570, 0x6cac0d08b63d798full},
    {"receiver4", false, 10, 494, 1407, 0x86d7c8334230754aull},
    {"receiver4", false, 11, 151, 414, 0x52dba39d2f9b3212ull},
    {"receiver4", false, 12, 74, 158, 0x308ed26f2b599ebcull},
    {"receiver4", false, 13, 173, 508, 0x4e942925d73f7ea3ull},
    {"receiver4", false, 14, 148, 382, 0xf937cd874195531cull},
    {"receiver4", false, 15, 159, 399, 0x75c598cc2bef3492ull},
    {"receiver4", false, 16, 173, 533, 0x3f251346e4288cc7ull},
    {"receiver4", false, 17, 287, 816, 0xd9d7fd7a9ad1c275ull},
    {"receiver4", false, 18, 154, 399, 0xcbd274e44f4d399dull},
    {"receiver4", false, 19, 205, 515, 0x9b5ad2d1ba2dbe49ull},
    {"receiver4", false, 20, 8894, 26103, 0xb734e0957448a9a9ull},
    {"accelerometer", true, 1, 19, 578, 0x53e91ffb937a1881ull},
    {"accelerometer", true, 2, 22, 917, 0x418615d1ce9f4f95ull},
    {"accelerometer", true, 3, 21, 665, 0x78b3702938d93f5aull},
    {"accelerometer", true, 4, 16, 418, 0xb43e859ccd6a16e1ull},
    {"accelerometer", true, 5, 19, 555, 0x9e63714c438bfa08ull},
    {"accelerometer", true, 6, 18, 502, 0xf58ebb9e4edda6cdull},
    {"accelerometer", true, 7, 20, 652, 0xe9d45e718a4a2b7eull},
    {"accelerometer", true, 8, 16, 432, 0x5c2f68f84e9930c0ull},
    {"accelerometer", true, 9, 19, 647, 0xcbd3374d415bf79eull},
    {"accelerometer", true, 10, 16, 426, 0x12ace6ab10685b68ull},
    {"accelerometer", true, 11, 16, 426, 0xb082d956f7110cf1ull},
    {"accelerometer", true, 12, 17, 520, 0x7b25f06c36993a95ull},
    {"accelerometer", true, 13, 16, 425, 0x365ba09e2f78f535ull},
    {"accelerometer", true, 14, 20, 722, 0x524d186db76c4eeeull},
    {"accelerometer", true, 15, 19, 598, 0x6657150cd6a6edd3ull},
    {"accelerometer", true, 16, 21, 662, 0xe8685d1873ef1e78ull},
    {"accelerometer", true, 17, 19, 672, 0x10262642e3e5735full},
    {"accelerometer", true, 18, 24, 806, 0x02d17f8dcf4a0df7ull},
    {"accelerometer", true, 19, 16, 426, 0x4202f1af96d82911ull},
    {"accelerometer", true, 20, 19, 666, 0x1ae1df8dbdfac12full},
    {"accelerometer", false, 1, 32, 44, 0x7642b22ccf0d4092ull},
    {"accelerometer", false, 2, 43, 58, 0x949ddccdafc06a48ull},
    {"accelerometer", false, 3, 233, 436, 0x3269d8425e85350dull},
    {"accelerometer", false, 4, 71, 118, 0x9089da2717d921faull},
    {"accelerometer", false, 5, 83, 130, 0xaf2cc3a1e29e511dull},
    {"accelerometer", false, 6, 31, 44, 0x7bbe09531d5e8e38ull},
    {"accelerometer", false, 7, 54, 82, 0xcdd435b9f677020dull},
    {"accelerometer", false, 8, 46, 74, 0x3f4c021b90bd39c0ull},
    {"accelerometer", false, 9, 47, 68, 0xd47b7ab6e05e1cf4ull},
    {"accelerometer", false, 10, 81, 132, 0xe5aaa8b2c97af4cbull},
    {"accelerometer", false, 11, 27, 38, 0x9a7606d8c953e1f5ull},
    {"accelerometer", false, 12, 22, 20, 0xe9af47c2f39ca9f0ull},
    {"accelerometer", false, 13, 93, 152, 0x455086c68c8ba168ull},
    {"accelerometer", false, 14, 21, 20, 0xa08f0ceb34ddea14ull},
    {"accelerometer", false, 15, 76, 120, 0x5aefbdf632dd69c5ull},
    {"accelerometer", false, 16, 82, 130, 0xbdd3e47970405b0full},
    {"accelerometer", false, 17, 88, 144, 0xe1c42b64587d95ebull},
    {"accelerometer", false, 18, 27, 30, 0x76ca2489cf685743ull},
    {"accelerometer", false, 19, 81, 134, 0xbab344853aa2a493ull},
    {"accelerometer", false, 20, 60, 102, 0x7fb1516ff5d0c067ull},
    {"walkthrough", true, 1, 8, 151, 0x533cdf1243cfbf16ull},
    {"walkthrough", true, 2, 8, 136, 0xb5342e6984f34820ull},
    {"walkthrough", true, 3, 8, 136, 0x3fab66cc95c8fd39ull},
    {"walkthrough", true, 4, 8, 136, 0x5d16d6a8f4308140ull},
    {"walkthrough", true, 5, 8, 146, 0x36f5b2859e044146ull},
    {"walkthrough", true, 6, 8, 146, 0x78365440d19ea9e5ull},
    {"walkthrough", true, 7, 8, 145, 0x31b33079ae30db32ull},
    {"walkthrough", true, 8, 8, 145, 0x9aac9f2c3d52e865ull},
    {"walkthrough", true, 9, 8, 146, 0xd48d84a2ef27e781ull},
    {"walkthrough", true, 10, 8, 146, 0xf51d002788a7b232ull},
    {"walkthrough", true, 11, 8, 136, 0xb66b6326c2df35c9ull},
    {"walkthrough", true, 12, 8, 136, 0x822eec754177641aull},
    {"walkthrough", true, 13, 8, 136, 0xe36c99cf2258c087ull},
    {"walkthrough", true, 14, 8, 136, 0x2599c87c2508e10bull},
    {"walkthrough", true, 15, 8, 151, 0x13d1106d2e33defeull},
    {"walkthrough", true, 16, 8, 146, 0x9461c0307650979bull},
    {"walkthrough", true, 17, 8, 146, 0xd4d1449a8400c61dull},
    {"walkthrough", true, 18, 8, 136, 0xa406136b758480feull},
    {"walkthrough", true, 19, 8, 146, 0xc007dc30ef4bbb87ull},
    {"walkthrough", true, 20, 8, 136, 0xda1f6335e08f47deull},
    {"walkthrough", false, 1, 22, 28, 0x9f8f538828955e06ull},
    {"walkthrough", false, 2, 22, 29, 0x8849ef934b9119d5ull},
    {"walkthrough", false, 3, 16, 16, 0x1a7c155c6338fc79ull},
    {"walkthrough", false, 4, 20, 24, 0x6dcd4427fecd88d1ull},
    {"walkthrough", false, 5, 22, 28, 0xb11a3022820bc89cull},
    {"walkthrough", false, 6, 22, 28, 0x935dff8c49b70614ull},
    {"walkthrough", false, 7, 29, 39, 0x4dc7154d9ae49770ull},
    {"walkthrough", false, 8, 22, 28, 0xefc39fd3ea3cf2aaull},
    {"walkthrough", false, 9, 29, 39, 0x4dc7154d9ae49770ull},
    {"walkthrough", false, 10, 22, 28, 0x018c87ac5ed0202eull},
    {"walkthrough", false, 11, 22, 28, 0xb85102fedbe820a0ull},
    {"walkthrough", false, 12, 23, 27, 0x59769bb7a43a6af9ull},
    {"walkthrough", false, 13, 20, 24, 0x8783001d1a985581ull},
    {"walkthrough", false, 14, 22, 28, 0x97c9af0f7c4c767dull},
    {"walkthrough", false, 15, 22, 28, 0xa4dfddb64b245664ull},
    {"walkthrough", false, 16, 21, 27, 0x89513020ae3e07ceull},
    {"walkthrough", false, 17, 22, 28, 0x3ef47c83fe34ffe7ull},
    {"walkthrough", false, 18, 22, 28, 0xfb73986ee4fcc165ull},
    {"walkthrough", false, 19, 20, 24, 0x128660fe0f203cd6ull},
    {"walkthrough", false, 20, 29, 39, 0x4a3fa91d89a16dd6ull},
};

class BuiltinGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(BuiltinGolden, EmbeddedTextMatchesCommittedFile) {
  const std::string file = std::string(GetParam()) + ".dddl";
  const std::optional<std::string> text = readSourceFile(file);
  ASSERT_TRUE(text.has_value()) << "missing scenarios/" << file;
  EXPECT_EQ(scenarios::embeddedText(file), *text)
      << "scenarios/" << file << " changed after configure";
}

TEST_P(BuiltinGolden, WriteReproducesEmbeddedBytes) {
  // write(parse(text)) == text: the committed file is the writer's
  // canonical form, so WAL and checkpoint headers embed these exact bytes.
  const std::string name = GetParam();
  EXPECT_EQ(dddl::write(gen::scenarioByName(name)),
            scenarios::embeddedText(name + ".dddl"));
}

TEST_P(BuiltinGolden, SimulationMatchesGoldenTable) {
  const std::string name = GetParam();
  const dpm::ScenarioSpec spec = gen::scenarioByName(name);
  std::size_t checked = 0;
  for (const GoldenRun& golden : kRuns) {
    if (name != golden.scenario) continue;
    const Outcome run = simulate(spec, golden.adpm, golden.seed);
    EXPECT_EQ(run.operations, golden.operations)
        << name << " adpm=" << golden.adpm << " seed=" << golden.seed;
    EXPECT_EQ(run.evaluations, golden.evaluations)
        << name << " adpm=" << golden.adpm << " seed=" << golden.seed;
    EXPECT_EQ(run.digest, golden.digest)
        << name << " adpm=" << golden.adpm << " seed=" << golden.seed;
    ++checked;
  }
  EXPECT_EQ(checked, 40u);
}

INSTANTIATE_TEST_SUITE_P(Builtins, BuiltinGolden,
                         ::testing::Values("sensing", "receiver", "receiver4",
                                           "accelerometer", "walkthrough"));

struct GoldenGainRun {
  double gainMin;
  bool adpm;
  std::uint64_t seed;
  std::size_t operations;
  std::size_t evaluations;
  std::uint64_t digest;
};

// The Fig. 10 sweep points, seeds 1..5 per flow.
const GoldenGainRun kGainRuns[] = {
    {20, true, 1, 30, 1562, 0x56cc50e8b1bdfa38ull},
    {20, true, 2, 29, 1372, 0x1a81461ede7b9840ull},
    {20, true, 3, 29, 1416, 0x739fad8be9b647a9ull},
    {20, true, 4, 29, 1416, 0x099496691ee36082ull},
    {20, true, 5, 31, 1970, 0xc12c200655ed18c2ull},
    {20, false, 1, 149, 470, 0x4aad13331683728eull},
    {20, false, 2, 72, 146, 0x55345ab9005907dfull},
    {20, false, 3, 132, 400, 0xe7fd9292aac0443eull},
    {20, false, 4, 109, 316, 0xa94fb84544686bc7ull},
    {20, false, 5, 163, 588, 0x5b8b34c656f7e475ull},
    {22, true, 1, 30, 1562, 0x127977d2dd68067eull},
    {22, true, 2, 29, 1372, 0xf8cb2d21a0a67bcaull},
    {22, true, 3, 29, 1426, 0x4bb32d2bbe6b7ef7ull},
    {22, true, 4, 29, 1426, 0xe31f8cba525c8d5cull},
    {22, true, 5, 31, 1970, 0x362526865aeafa48ull},
    {22, false, 1, 149, 470, 0x5583842e3e5b764cull},
    {22, false, 2, 72, 146, 0x59b20fdc877654fdull},
    {22, false, 3, 132, 400, 0xee7c04701f5b26dcull},
    {22, false, 4, 109, 316, 0x91acb8b6cd6b64adull},
    {22, false, 5, 163, 588, 0xaaa0791c42bd9753ull},
    {24, true, 1, 30, 1564, 0x211d6371cb859f1cull},
    {24, true, 2, 29, 1372, 0xb74c2bf00e33b6ccull},
    {24, true, 3, 29, 1428, 0x89ebfe4754364c4bull},
    {24, true, 4, 29, 1430, 0xadca7d5027652236ull},
    {24, true, 5, 31, 1972, 0x3d388529c6dae566ull},
    {24, false, 1, 149, 470, 0x9cf5b73da3cf76e2ull},
    {24, false, 2, 72, 146, 0x17ce956f0518b4cbull},
    {24, false, 3, 132, 400, 0x90ac6c3f2387912aull},
    {24, false, 4, 109, 316, 0xe7586a8c2a7bc933ull},
    {24, false, 5, 163, 588, 0x4ac5c0726d0b1a11ull},
    {27, true, 1, 30, 1576, 0xc6905c875876a6e3ull},
    {27, true, 2, 29, 1389, 0x569f76c61ab9b329ull},
    {27, true, 3, 29, 1439, 0x3b26e579c002332cull},
    {27, true, 4, 30, 1605, 0x21a40d3f0ab6fb6aull},
    {27, true, 5, 31, 1989, 0x0a0945afe7f88c2bull},
    {27, false, 1, 149, 470, 0x6c7acc2fdff7d593ull},
    {27, false, 2, 89, 220, 0x724f1df2d2cdea4full},
    {27, false, 3, 191, 610, 0x742469ac1ead0f7eull},
    {27, false, 4, 193, 686, 0xcb4e280e1315d60full},
    {27, false, 5, 163, 588, 0xb367506aba20f908ull},
    {28, true, 1, 30, 1603, 0x9dd47e6f47175470ull},
    {28, true, 2, 29, 1418, 0xfb32fe1d96e7bb00ull},
    {28, true, 3, 29, 1466, 0x5258b93aa834692cull},
    {28, true, 4, 30, 1628, 0x49186ac799bb3827ull},
    {28, true, 5, 31, 2008, 0x417640e5a4d8b164ull},
    {28, false, 1, 149, 470, 0x5bfe4540212667c6ull},
    {28, false, 2, 187, 592, 0x1953c09c3c04df63ull},
    {28, false, 3, 249, 796, 0x09221ad9808668e1ull},
    {28, false, 4, 147, 448, 0xb9e46deef7cf20c1ull},
    {28, false, 5, 163, 588, 0xefa948e0c0bbd70dull},
    {31, true, 1, 30, 1755, 0xe72420862f487e61ull},
    {31, true, 2, 30, 1719, 0x861e963851ea9c18ull},
    {31, true, 3, 30, 1667, 0x079bf0bb86515cd0ull},
    {31, true, 4, 30, 1772, 0xa78a3e510955ed17ull},
    {31, true, 5, 31, 2163, 0x7fe492943e3e4a42ull},
    {31, false, 1, 114, 328, 0xc376f2615dbfbde9ull},
    {31, false, 2, 371, 1248, 0x2729fd9545e11e97ull},
    {31, false, 3, 191, 586, 0xe90ed9517d569a3aull},
    {31, false, 4, 126, 386, 0x02fdca68fce6151bull},
    {31, false, 5, 128, 384, 0x5cab8c59b4ed77e9ull},
    {32, true, 1, 30, 1993, 0xd39cdbc3ac2dcdfaull},
    {32, true, 2, 30, 1943, 0x61d23767aa1414a0ull},
    {32, true, 3, 41, 3535, 0x2febec3b2ac5a7feull},
    {32, true, 4, 30, 2029, 0x5ab71effbe53044full},
    {32, true, 5, 31, 2401, 0x67ef39afcc0a3b69ull},
    {32, false, 1, 187, 582, 0x4dc433f4ca3acea5ull},
    {32, false, 2, 381, 1230, 0xb76d0bcc807f091full},
    {32, false, 3, 1025, 3556, 0x13a0094d8db4ea6full},
    {32, false, 4, 262, 902, 0x3e3f36b6d6217c2full},
    {32, false, 5, 111, 316, 0xc0921d2fbf4c2262ull},
};

TEST(ReceiverGolden, GainSweepMatchesGoldenTable) {
  // The Fig. 10 benches vary only the value of the receiver's single
  // Gain-min requirement, overwriting it in place.
  dpm::ScenarioSpec spec = gen::scenarioByName("receiver");
  const std::size_t gainMin = spec.propertyIndex("Gain-min").value();
  std::size_t matches = 0;
  for (const dpm::ScenarioSpec::Requirement& r : spec.requirements) {
    if (r.property == gainMin) ++matches;
  }
  ASSERT_EQ(matches, 1u);

  for (const GoldenGainRun& golden : kGainRuns) {
    for (dpm::ScenarioSpec::Requirement& r : spec.requirements) {
      if (r.property == gainMin) r.value = golden.gainMin;
    }
    const Outcome run = simulate(spec, golden.adpm, golden.seed);
    EXPECT_EQ(run.operations, golden.operations)
        << "gain=" << golden.gainMin << " adpm=" << golden.adpm
        << " seed=" << golden.seed;
    EXPECT_EQ(run.evaluations, golden.evaluations)
        << "gain=" << golden.gainMin << " adpm=" << golden.adpm
        << " seed=" << golden.seed;
    EXPECT_EQ(run.digest, golden.digest)
        << "gain=" << golden.gainMin << " adpm=" << golden.adpm
        << " seed=" << golden.seed;
  }
}

struct GoldenZooRun {
  const char* preset;
  bool adpm;
  std::uint64_t seed;
  std::size_t maxOperations;  // 0: the engine's default cap
  std::size_t operations;
  std::size_t evaluations;
  std::uint64_t digest;
};

// TeamSim trajectories on generated networks, where the designer's
// defining-model chains do most of their work: zoo-toy and zoo-small seeds
// 1..5 per flow, and zoo-medium (ADPM) seeds 1..3 capped at 25 operations,
// the cap perfbench's teamsim-zoo-medium workload runs under.  Conventional
// zoo-small seeds 1 and 4 never complete and stop at the engine's cap.
const GoldenZooRun kZooRuns[] = {
    {"zoo-toy", true, 1, 0, 8, 179, 0x127bb24185c9928eull},
    {"zoo-toy", true, 2, 0, 8, 156, 0xfc86d87684927263ull},
    {"zoo-toy", true, 3, 0, 13, 609, 0xd9cea393705e24b4ull},
    {"zoo-toy", true, 4, 0, 10, 409, 0x0d78c4b7742a9179ull},
    {"zoo-toy", true, 5, 0, 10, 447, 0x6c35330e18e6a8f7ull},
    {"zoo-toy", false, 1, 0, 105, 163, 0x1a489921f2bbf478ull},
    {"zoo-toy", false, 2, 0, 46, 66, 0x7555531a74e91c2aull},
    {"zoo-toy", false, 3, 0, 141, 226, 0xdb7757cf1839c2afull},
    {"zoo-toy", false, 4, 0, 62, 103, 0xf65c11b26ec1dce4ull},
    {"zoo-toy", false, 5, 0, 84, 132, 0x4c1d609a168a2d2bull},
    {"zoo-small", true, 1, 0, 101, 37700, 0x5953ff39bb8f41f8ull},
    {"zoo-small", true, 2, 0, 34, 7300, 0x01af760baf057ce0ull},
    {"zoo-small", true, 3, 0, 35, 15126, 0xe87fd3aa0d439066ull},
    {"zoo-small", true, 4, 0, 33, 11034, 0xdbaeba7b2a035a88ull},
    {"zoo-small", true, 5, 0, 106, 83644, 0x04cffc41ba255acbull},
    {"zoo-small", false, 1, 0, 20000, 85510, 0x5a6dc850e5a9589cull},
    {"zoo-small", false, 2, 0, 225, 810, 0x456c8a41945d9a56ull},
    {"zoo-small", false, 3, 0, 457, 1680, 0xf05f45f016a8fdf9ull},
    {"zoo-small", false, 4, 0, 20000, 85360, 0xf8d49d41d8d9e3cdull},
    {"zoo-small", false, 5, 0, 453, 1630, 0xf6873c8e0bc923cbull},
    {"zoo-medium", true, 1, 25, 25, 529667, 0xe95fc49bc5a0af30ull},
    {"zoo-medium", true, 2, 25, 25, 517704, 0x59291c36214d9ac6ull},
    {"zoo-medium", true, 3, 25, 25, 624900, 0xe42f453d98d76135ull},
};

struct ZooFlow {
  const char* preset;
  bool adpm;
};

void PrintTo(const ZooFlow& f, std::ostream* os) {
  *os << f.preset << (f.adpm ? " adpm" : " conventional");
}

class ZooTrajectoryGolden : public ::testing::TestWithParam<ZooFlow> {};

TEST_P(ZooTrajectoryGolden, SimulationMatchesGoldenTable) {
  const ZooFlow& flow = GetParam();
  const dpm::ScenarioSpec spec = gen::scenarioByName(flow.preset);
  std::size_t checked = 0;
  for (const GoldenZooRun& golden : kZooRuns) {
    if (std::string(flow.preset) != golden.preset || flow.adpm != golden.adpm) {
      continue;
    }
    const Outcome run =
        simulate(spec, golden.adpm, golden.seed, golden.maxOperations);
    EXPECT_EQ(run.operations, golden.operations) << "seed=" << golden.seed;
    EXPECT_EQ(run.evaluations, golden.evaluations) << "seed=" << golden.seed;
    EXPECT_EQ(run.digest, golden.digest) << "seed=" << golden.seed;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ZooTrajectories, ZooTrajectoryGolden,
    ::testing::Values(ZooFlow{"zoo-toy", true}, ZooFlow{"zoo-toy", false},
                      ZooFlow{"zoo-small", true}, ZooFlow{"zoo-small", false},
                      ZooFlow{"zoo-medium", true}),
    [](const ::testing::TestParamInfo<ZooFlow>& info) {
      std::string name = info.param.preset;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.adpm ? "_adpm" : "_conventional");
    });

struct GoldenParamfile {
  const char* name;
  std::uint64_t digest;  // fnv1a64 of the paramfile bytes
};

// gtest's default printer dumps the struct's bytes, the name pointer
// included, and that dump is part of the ctest name; print the name so the
// test ids are the same in every build.
void PrintTo(const GoldenParamfile& p, std::ostream* os) { *os << p.name; }

const GoldenParamfile kParamfiles[] = {
    {"zoo-toy", 0x5204d1af4d0f2f75ull},
    {"zoo-small", 0xbf8b7198e8b12b69ull},
    {"zoo-medium", 0xd85e78aa154aa073ull},
    {"zoo-large", 0x56dc50823aaf1034ull},
    {"zoo-xl", 0x65f29418d3b6dfecull},
};

class ZooGolden : public ::testing::TestWithParam<GoldenParamfile> {};

TEST_P(ZooGolden, EmbeddedParamfileMatchesCommittedFile) {
  const GoldenParamfile& golden = GetParam();
  const std::string file = std::string("zoo/") + golden.name + ".json";
  const std::optional<std::string> text = readSourceFile(file);
  ASSERT_TRUE(text.has_value()) << "missing scenarios/" << file;

  const gen::ZooPreset* preset = nullptr;
  for (const gen::ZooPreset& p : gen::zooPresets()) {
    if (p.name == golden.name) preset = &p;
  }
  ASSERT_NE(preset, nullptr) << golden.name;
  EXPECT_EQ(preset->paramfile, *text);
  EXPECT_EQ(util::fnv1a64(preset->paramfile), golden.digest);
  EXPECT_EQ(gen::parseParams(*text), gen::zooPreset(golden.name));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooGolden, ::testing::ValuesIn(kParamfiles),
    [](const ::testing::TestParamInfo<GoldenParamfile>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace adpm
