// The load driver's digest check, against a fake host: each session's
// shadow digest is compared with the host's final snapshot, and a host
// that diverges is counted, not trusted.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dpm/manager.hpp"
#include "gen/registry.hpp"
#include "service/load.hpp"
#include "util/strings.hpp"

namespace adpm::service {
namespace {

/// A host that is a bare manager of its own, running every applied op.
/// A `corrupt` one reports its final digest with one digit changed.
class MirrorTarget final : public LoadTarget {
 public:
  MirrorTarget(const dpm::ScenarioSpec& spec, bool corrupt)
      : spec_(spec), corrupt_(corrupt) {}

  const dpm::ScenarioSpec& open(const std::string&, bool adpm) override {
    dpm_ = std::make_unique<dpm::DesignProcessManager>(
        dpm::DesignProcessManager::Options{.adpm = adpm});
    dpm::instantiate(spec_, *dpm_);
    dpm_->bootstrap();
    return spec_;
  }
  void subscribe(const std::string&) override {}
  bool apply(const dpm::Operation& op, std::size_t) override {
    (void)dpm_->execute(dpm::Operation(op));
    return true;
  }
  std::vector<dpm::Notification> drain() override { return {}; }
  SessionSnapshot snapshot() override {
    SessionSnapshot snap;
    snap.stage = dpm_->stage();
    snap.digest = util::fnv1a64Hex(snapshotText(*dpm_));
    if (corrupt_) snap.digest[0] = snap.digest[0] == '0' ? '1' : '0';
    return snap;
  }

 private:
  const dpm::ScenarioSpec& spec_;
  bool corrupt_;
  std::unique_ptr<dpm::DesignProcessManager> dpm_;
};

TEST(LoadDriver, CountsAHostWhoseDigestDiffersFromTheShadow) {
  const dpm::ScenarioSpec spec = gen::scenarioByName("sensing");
  int made = 0;
  const LoadHost host{
      .target = [&] {
        return std::make_unique<MirrorTarget>(spec, /*corrupt=*/made++ == 1);
      },
      .inlineSessions = true};
  LoadOptions load;
  load.sessions = 3;
  load.sim.seed = 4;
  const LoadReport report = runLoad(host, load);

  EXPECT_EQ(report.sessions, 3u);
  EXPECT_EQ(report.failedSessions, 0u);
  EXPECT_EQ(report.completedSessions, 3u);
  EXPECT_GT(report.operations, 0u);
  EXPECT_EQ(report.digestMismatches, 1u);
}

}  // namespace
}  // namespace adpm::service
