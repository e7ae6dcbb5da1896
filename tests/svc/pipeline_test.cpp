// TenantPipeline: the streaming service's SDS pipeline. Pins that it makes
// the live SdsDetector's decision on every sample (both run one
// detect::SdsAnalyzer), and that checkpoint restore refuses a corrupt
// profile or an analyzer section that disagrees with it instead of
// aborting inside the analyzer constructors.
#include "svc/pipeline.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "detect/sds_detector.h"
#include "eval/experiment.h"
#include "eval/scenario.h"

namespace sds::svc {
namespace {

// Passes a sample source through unchanged and keeps a copy of every
// sample it delivers: the exact stream the wrapped detector consumed.
class TapSource final : public pcm::SampleSource {
 public:
  explicit TapSource(pcm::SampleSource& inner) : inner_(inner) {}
  void Start() override { inner_.Start(); }
  void Stop() override { inner_.Stop(); }
  bool started() const override { return inner_.started(); }
  OwnerId target() const override { return inner_.target(); }
  std::optional<pcm::PcmSample> Next() override {
    auto s = inner_.Next();
    if (s) tapped.push_back(*s);
    return s;
  }

  std::vector<pcm::PcmSample> tapped;

 private:
  pcm::SampleSource& inner_;
};

// Runs a live combined SDS detector over an attacked scenario, then feeds
// the same clean trace and the tapped stream to a pipeline and compares
// the per-sample decision.
void ExpectPipelineMatchesLiveDetector(const std::string& app,
                                       eval::AttackKind attack,
                                       std::uint64_t seed, bool periodic) {
  constexpr Tick kClean = 8000;
  constexpr Tick kTicks = 9000;
  constexpr Tick kAttackStart = 3000;
  const detect::DetectorParams params;
  eval::ScenarioConfig base;
  base.app = app;
  const auto clean = eval::CollectCleanSamples(base, kClean, seed + 1000);
  const detect::SdsProfile profile = detect::BuildSdsProfile(clean, params);
  ASSERT_EQ(profile.periodic(), periodic) << app;

  eval::ScenarioConfig cfg;
  cfg.app = app;
  cfg.attack = attack;
  cfg.attack_start = kAttackStart;
  cfg.seed = seed;
  eval::Scenario scenario = eval::BuildScenario(cfg);
  pcm::PcmSampler sampler(*scenario.hypervisor, scenario.victim);
  TapSource tap(sampler);
  detect::SdsDetector live(*scenario.hypervisor, scenario.victim, profile,
                           params, detect::SdsMode::kCombined, &tap,
                           detect::DegradeConfig{});
  std::vector<bool> live_active;
  for (Tick t = 0; t < kTicks; ++t) {
    scenario.hypervisor->RunTick();
    live.OnTick();
    live_active.push_back(live.attack_active());
  }
  ASSERT_EQ(tap.tapped.size(), live_active.size());
  ASSERT_GT(live.alarm_events(), 0u) << app << ": the attack must alarm";

  PipelineConfig pc;
  pc.det = params;
  pc.profile_len = static_cast<std::uint32_t>(clean.size());
  TenantPipeline pipeline(pc);
  for (const auto& s : clean) pipeline.OnSample(s);
  ASSERT_TRUE(pipeline.monitoring());
  for (std::size_t i = 0; i < tap.tapped.size(); ++i) {
    const PipelineDecision d = pipeline.OnSample(tap.tapped[i]);
    ASSERT_TRUE(d.decided);
    ASSERT_EQ(d.active, live_active[i]) << app << " sample " << i;
  }
}

TEST(PipelineTest, MatchesLiveDetectorOnNonPeriodicApp) {
  ExpectPipelineMatchesLiveDetector("kmeans", eval::AttackKind::kBusLock, 5,
                                    false);
}

TEST(PipelineTest, MatchesLiveDetectorOnPeriodicApp) {
  ExpectPipelineMatchesLiveDetector("pca", eval::AttackKind::kBusLock, 6,
                                    true);
}

detect::DetectorParams SmallParams() {
  detect::DetectorParams p;
  p.window = 20;
  p.step = 5;
  return p;
}

detect::SdsProfile FlatProfile() {
  detect::SdsProfile profile;
  profile.access_boundary = {2500.0, 40.0};
  profile.miss_boundary = {600.0, 12.0};
  return profile;
}

// The pipeline header of a monitoring pipeline, as SaveState writes it.
void WriteMonitoringHeader(SnapshotWriter& w) {
  w.Bool(true);    // monitoring
  w.Bool(false);   // was_active
  w.U64(500);      // samples_seen
}

bool RestoreInto(const SnapshotWriter& w) {
  PipelineConfig pc;
  pc.det = SmallParams();
  pc.profile_len = 100;
  TenantPipeline pipeline(pc);
  SnapshotReader r(w.data());
  return pipeline.RestoreState(r);
}

TEST(PipelineTest, RestoreRejectsCorruptProfileValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    detect::SdsProfile profile;
  };
  std::vector<Case> cases;
  for (const double bad : {-1.0, nan, inf}) {
    detect::SdsProfile p = FlatProfile();
    p.access_boundary.stddev = bad;
    cases.push_back({"access stddev", p});
  }
  for (const double bad : {nan, -inf}) {
    detect::SdsProfile p = FlatProfile();
    p.miss_boundary.mean = bad;
    cases.push_back({"miss mean", p});
  }
  for (const double bad : {0.0, -3.0, nan, inf}) {
    detect::SdsProfile p = FlatProfile();
    p.access_period = detect::PeriodProfile{bad, 0.5};
    cases.push_back({"access period", p});
  }
  for (const Case& c : cases) {
    // Everything after the profile is irrelevant: the profile is refused
    // before any analyzer is built from it.
    SnapshotWriter w;
    WriteMonitoringHeader(w);
    detect::WriteSdsProfile(w, c.profile);
    EXPECT_FALSE(RestoreInto(w)) << c.what;
  }
}

TEST(PipelineTest, RestoreRejectsPeriodFlagsThatDisagreeWithTheProfile) {
  const detect::DetectorParams params = SmallParams();
  detect::SdsProfile periodic = FlatProfile();
  periodic.access_period = detect::PeriodProfile{8.0, 0.7};

  // Profile says non-periodic; the analyzer section carries a period
  // analyzer (and the reverse).
  const detect::SdsProfile flat = FlatProfile();
  for (const bool profile_periodic : {false, true}) {
    SnapshotWriter w;
    WriteMonitoringHeader(w);
    detect::WriteSdsProfile(w, profile_periodic ? periodic : flat);
    const detect::SdsAnalyzer other(profile_periodic ? flat : periodic,
                                    params, detect::SdsMode::kCombined);
    other.SaveState(w);
    EXPECT_FALSE(RestoreInto(w)) << "profile_periodic=" << profile_periodic;
  }
  // Control: the matching section restores.
  SnapshotWriter ok;
  WriteMonitoringHeader(ok);
  detect::WriteSdsProfile(ok, periodic);
  detect::SdsAnalyzer(periodic, params, detect::SdsMode::kCombined)
      .SaveState(ok);
  EXPECT_TRUE(RestoreInto(ok));
}

}  // namespace
}  // namespace sds::svc
