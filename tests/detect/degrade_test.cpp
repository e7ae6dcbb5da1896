#include "detect/degrade.h"

#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "eval/scenario.h"
#include "workloads/catalog.h"

namespace sds::detect {
namespace {

struct Rig {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<vm::Hypervisor> hypervisor;
  OwnerId victim;

  Rig() {
    sim::MachineConfig mc;
    machine = std::make_unique<sim::Machine>(mc);
    vm::HypervisorConfig hc;
    hypervisor = std::make_unique<vm::Hypervisor>(*machine, hc, Rng(3));
    victim = hypervisor->CreateVm("victim", workloads::MakeApp("bayes"));
  }
};

// A SampleSource the test scripts tick by tick: set `next` (and `span`)
// before each OnTick call; leaving it empty scripts a gap.
class ScriptedSource final : public pcm::SampleSource {
 public:
  explicit ScriptedSource(OwnerId target) : target_(target) {}
  void Start() override { started_ = true; }
  void Stop() override { started_ = false; }
  bool started() const override { return started_; }
  OwnerId target() const override { return target_; }
  std::optional<pcm::PcmSample> Next() override {
    auto out = next;
    next.reset();
    return out;
  }
  Tick last_span() const override { return span; }
  bool healthy() const override { return healthy_flag; }
  bool TryRestart() override {
    ++restart_calls;
    if (!restart_allowed) return false;
    healthy_flag = true;
    return true;
  }

  std::optional<pcm::PcmSample> next;
  Tick span = 1;
  bool healthy_flag = true;
  bool restart_allowed = true;
  int restart_calls = 0;

 private:
  OwnerId target_;
  bool started_ = false;
};

pcm::PcmSample Sample(Tick tick, std::uint64_t access, std::uint64_t miss) {
  pcm::PcmSample s;
  s.tick = tick;
  s.access_num = access;
  s.miss_num = miss;
  return s;
}

// -- SampleIsSane -------------------------------------------------------------

TEST(SampleIsSaneTest, AcceptsPlausibleSamples) {
  EXPECT_TRUE(SampleIsSane(Sample(1, 500, 50), 1));
  EXPECT_TRUE(SampleIsSane(Sample(1, 0, 0), 1));
  EXPECT_TRUE(SampleIsSane(Sample(1, kMaxSampleDeltaPerTick, 0), 1));
}

TEST(SampleIsSaneTest, RejectsImpossibleDeltas) {
  EXPECT_FALSE(SampleIsSane(Sample(1, kMaxSampleDeltaPerTick + 1, 0), 1));
  EXPECT_FALSE(
      SampleIsSane(Sample(1, std::uint64_t{1} << 62, 0), 1));
}

TEST(SampleIsSaneTest, RejectsMissExceedingAccess) {
  EXPECT_FALSE(SampleIsSane(Sample(1, 10, 11), 1));
}

TEST(SampleIsSaneTest, CeilingScalesWithSpan) {
  // A legitimate 5-interval coalesced delta exceeds the 1-interval ceiling
  // but not the span-scaled one.
  const pcm::PcmSample wide = Sample(5, 3 * kMaxSampleDeltaPerTick, 0);
  EXPECT_FALSE(SampleIsSane(wide, 1));
  EXPECT_TRUE(SampleIsSane(wide, 5));
}

// -- SamplerWatchdog ----------------------------------------------------------

TEST(SamplerWatchdogTest, BackoffGrowsAcrossAttemptsOfOneIncident) {
  Rig rig;
  ScriptedSource source(rig.victim);
  source.healthy_flag = false;
  source.restart_allowed = false;
  // Backoff 1 -> 2 -> 4 -> ... capped at 64.
  SamplerWatchdog watchdog(source, *rig.hypervisor);
  for (Tick now = 1; now <= 20; ++now) watchdog.OnMissing(now);
  // Probes at ticks 1, 2, 4, 8, 16 — exponential, not every tick.
  EXPECT_EQ(watchdog.attempts(), 5u);
  EXPECT_EQ(watchdog.restarts(), 0u);
  EXPECT_EQ(source.restart_calls, 5);
}

TEST(SamplerWatchdogTest, SuccessfulRestartDoesNotResetBackoff) {
  // The storm regression: a source that accepts every restart but never
  // resumes delivery must still be probed on the exponential schedule —
  // otherwise the consumer is re-warmed every few ticks forever.
  Rig rig;
  ScriptedSource source(rig.victim);
  source.healthy_flag = false;
  SamplerWatchdog watchdog(source, *rig.hypervisor);
  for (Tick now = 1; now <= 20; ++now) {
    if (watchdog.OnMissing(now)) {
      // Restart "succeeded" but the stream stays silent.
      source.healthy_flag = false;
    }
  }
  EXPECT_EQ(watchdog.attempts(), 5u);
  EXPECT_EQ(watchdog.restarts(), 5u);
}

TEST(SamplerWatchdogTest, DeliveryEndsTheIncidentAndResetsBackoff) {
  Rig rig;
  ScriptedSource source(rig.victim);
  source.healthy_flag = false;
  source.restart_allowed = false;
  SamplerWatchdog watchdog(source, *rig.hypervisor);
  for (Tick now = 1; now <= 8; ++now) watchdog.OnMissing(now);
  EXPECT_EQ(watchdog.attempts(), 4u);  // ticks 1, 2, 4, 8
  watchdog.OnDelivered();
  EXPECT_EQ(watchdog.miss_streak(), 0);
  // A fresh incident probes immediately again instead of inheriting the
  // old 16-tick backoff.
  watchdog.OnMissing(100);
  EXPECT_EQ(watchdog.attempts(), 5u);
}

TEST(SamplerWatchdogTest, HealthyLossySourceIsLeftAloneUntilStreak) {
  Rig rig;
  ScriptedSource source(rig.victim);  // healthy, just not delivering
  // Presumed dead after 5 consecutive misses.
  SamplerWatchdog watchdog(source, *rig.hypervisor);
  for (Tick now = 1; now <= 4; ++now) {
    watchdog.OnMissing(now);
    EXPECT_EQ(watchdog.attempts(), 0u) << "tick " << now;
  }
  watchdog.OnMissing(5);
  EXPECT_EQ(watchdog.attempts(), 1u);
}

// -- DegradingSampleGate ------------------------------------------------------

struct GateRig : Rig {
  ScriptedSource source;
  explicit GateRig() : source(victim) { source.Start(); }

  DegradingSampleGate MakeGate(const DegradeConfig& config) {
    return DegradingSampleGate(*hypervisor, source, config, "test");
  }
};

TEST(DegradingSampleGateTest, PassesDeliveredSamplesThrough) {
  GateRig rig;
  DegradingSampleGate gate = rig.MakeGate(DegradeConfig{});
  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  const auto out = gate.OnTick();
  EXPECT_TRUE(out.delivered);
  EXPECT_FALSE(out.quarantined);
  EXPECT_FALSE(out.substituted);
  ASSERT_TRUE(out.sample.has_value());
  EXPECT_EQ(out.sample->access_num, 500u);
  EXPECT_EQ(out.sample->miss_num, 50u);
  EXPECT_EQ(gate.stats().delivered, 1u);
}

TEST(DegradingSampleGateTest, HoldLastSubstitutesOnGaps) {
  GateRig rig;
  DegradeConfig config;  // kHoldLast
  DegradingSampleGate gate = rig.MakeGate(config);

  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  gate.OnTick();

  rig.hypervisor->RunTick();  // gap tick
  const auto out = gate.OnTick();
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.substituted);
  ASSERT_TRUE(out.sample.has_value());
  // The held sample carries the last good values, re-stamped to this tick.
  EXPECT_EQ(out.sample->access_num, 500u);
  EXPECT_EQ(out.sample->miss_num, 50u);
  EXPECT_EQ(out.sample->tick, rig.hypervisor->now());
  EXPECT_EQ(gate.stats().substituted, 1u);
  EXPECT_EQ(gate.stats().gap_ticks, 1u);
}

TEST(DegradingSampleGateTest, HoldLastHasNothingToSubstituteBeforeFirstGood) {
  GateRig rig;
  DegradeConfig config;
  DegradingSampleGate gate = rig.MakeGate(config);
  rig.hypervisor->RunTick();  // gap before any delivery
  const auto out = gate.OnTick();
  EXPECT_FALSE(out.sample.has_value());
  EXPECT_FALSE(out.substituted);
}

TEST(DegradingSampleGateTest, SkipFreezeFeedsNothingOnGaps) {
  GateRig rig;
  DegradeConfig config;
  config.gap_policy = GapPolicy::kSkipFreeze;
  DegradingSampleGate gate = rig.MakeGate(config);

  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  gate.OnTick();
  rig.hypervisor->RunTick();
  const auto out = gate.OnTick();
  EXPECT_FALSE(out.sample.has_value());
  EXPECT_FALSE(out.substituted);
  EXPECT_EQ(gate.stats().gap_ticks, 1u);
}

TEST(DegradingSampleGateTest, QuarantinesInsaneSamplesAsGaps) {
  GateRig rig;
  DegradeConfig config;  // kHoldLast
  DegradingSampleGate gate = rig.MakeGate(config);

  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  gate.OnTick();

  // A counter-reset-style wrapped delta must never reach the analyzers —
  // the tick degrades to a gap and hold-last substitutes the last good.
  rig.hypervisor->RunTick();
  rig.source.next = Sample(2, std::uint64_t{1} << 62, 7);
  const auto out = gate.OnTick();
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.quarantined);
  EXPECT_TRUE(out.substituted);
  ASSERT_TRUE(out.sample.has_value());
  EXPECT_EQ(out.sample->access_num, 500u);
  EXPECT_EQ(gate.stats().quarantined, 1u);
}

TEST(DegradingSampleGateTest, NormalizesSpanningSamplesToPerInterval) {
  GateRig rig;
  DegradeConfig config;
  DegradingSampleGate gate = rig.MakeGate(config);
  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 1000, 100);
  rig.source.span = 4;
  const auto out = gate.OnTick();
  ASSERT_TRUE(out.sample.has_value());
  EXPECT_EQ(out.sample->access_num, 250u);
  EXPECT_EQ(out.sample->miss_num, 25u);
}

TEST(DegradingSampleGateTest, RewarmFiresOncePerGap) {
  GateRig rig;
  // The watchdog probes a 5-tick gap; a refused restart keeps its rewarm
  // out of the way so only the gap-length rewarm is observed.
  rig.source.restart_allowed = false;
  DegradeConfig config;
  config.gap_policy = GapPolicy::kRewarm;
  DegradingSampleGate gate = rig.MakeGate(config);

  auto gap_tick = [&]() {
    rig.hypervisor->RunTick();
    return gate.OnTick();
  };
  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  gate.OnTick();

  for (Tick gap = 1; gap < kRewarmGap; ++gap) {
    EXPECT_FALSE(gap_tick().rewarm) << "gap length " << gap;
  }
  EXPECT_TRUE(gap_tick().rewarm);   // gap length kRewarmGap: fire once
  EXPECT_FALSE(gap_tick().rewarm);  // same gap keeps running: no repeat
  EXPECT_FALSE(gap_tick().rewarm);
  EXPECT_EQ(gate.stats().rewarms, 1u);

  // Data resumes, then a second long gap earns a second re-warm.
  rig.hypervisor->RunTick();
  rig.source.next = Sample(10, 500, 50);
  gate.OnTick();
  for (Tick gap = 1; gap < kRewarmGap; ++gap) {
    EXPECT_FALSE(gap_tick().rewarm) << "gap length " << gap;
  }
  EXPECT_TRUE(gap_tick().rewarm);
  EXPECT_EQ(gate.stats().rewarms, 2u);
}

TEST(DegradingSampleGateTest, RestartRewarmsUnlessHoldLast) {
  // A successful watchdog restart re-baselines the source. Under hold-last
  // the substitute stream stayed continuous, so analyzer state is kept;
  // under skip-freeze the gap left a real discontinuity and the consumer
  // must re-warm.
  for (const GapPolicy policy :
       {GapPolicy::kHoldLast, GapPolicy::kSkipFreeze}) {
    GateRig rig;
    rig.source.healthy_flag = false;  // dead: watchdog probes immediately
    DegradeConfig config;
    config.gap_policy = policy;
    DegradingSampleGate gate = rig.MakeGate(config);
    rig.hypervisor->RunTick();
    const auto out = gate.OnTick();
    EXPECT_EQ(rig.source.restart_calls, 1);
    EXPECT_EQ(out.rewarm, policy != GapPolicy::kHoldLast)
        << GapPolicyName(policy);
    EXPECT_EQ(gate.stats().watchdog_restarts, 1u);
  }
}

TEST(DegradingSampleGateTest, SessionStartForgetsHeldSample) {
  GateRig rig;
  DegradeConfig config;
  DegradingSampleGate gate = rig.MakeGate(config);
  rig.hypervisor->RunTick();
  rig.source.next = Sample(1, 500, 50);
  gate.OnTick();
  gate.OnSessionStart();
  // The previous session's last sample is stale context for the new one.
  rig.hypervisor->RunTick();
  const auto out = gate.OnTick();
  EXPECT_FALSE(out.sample.has_value());
  EXPECT_FALSE(out.substituted);
}

TEST(DegradingSampleGateTest, TransparentOverPerfectSource) {
  // With a fault-free real sampler every policy must be bit-transparent:
  // same samples out as in, zero degradation activity. (The golden
  // regression test pins the same invariant end-to-end.)
  for (const GapPolicy policy : {GapPolicy::kHoldLast, GapPolicy::kSkipFreeze,
                                 GapPolicy::kRewarm}) {
    Rig gate_rig;
    Rig plain_rig;
    pcm::PcmSampler source(*gate_rig.hypervisor, gate_rig.victim);
    pcm::PcmSampler plain(*plain_rig.hypervisor, plain_rig.victim);
    source.Start();
    plain.Start();
    DegradeConfig config;
    config.gap_policy = policy;
    DegradingSampleGate gate(*gate_rig.hypervisor, source, config, "test");
    for (int t = 0; t < 50; ++t) {
      gate_rig.hypervisor->RunTick();
      plain_rig.hypervisor->RunTick();
      const pcm::PcmSample want = plain.Sample();
      const auto out = gate.OnTick();
      ASSERT_TRUE(out.sample.has_value());
      EXPECT_FALSE(out.substituted);
      EXPECT_FALSE(out.rewarm);
      EXPECT_EQ(out.sample->access_num, want.access_num);
      EXPECT_EQ(out.sample->miss_num, want.miss_num);
    }
    EXPECT_EQ(gate.stats().delivered, 50u);
    EXPECT_EQ(gate.stats().gap_ticks, 0u);
    EXPECT_EQ(gate.stats().quarantined, 0u);
    EXPECT_EQ(gate.stats().watchdog_attempts, 0u);
  }
}

}  // namespace
}  // namespace sds::detect
