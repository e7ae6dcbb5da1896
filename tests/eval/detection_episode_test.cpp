// DetectionEpisode's stage 2/3 scoring, recomputed from the documented rules
// out of what the detector showed after every Step(), and compared with
// Result(). The cases span SDS, SDS/B, SDS/P and KStest over a few seeds,
// including KStest on TeraSort, whose phase switches raise clean-stage
// false alarms. A second test pins what the episode writes into an attached
// telemetry stream.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "telemetry/telemetry.h"

namespace sds::eval {
namespace {

// The detector's state right after one Step().
struct TickView {
  Tick now = 0;
  bool active = false;
  std::uint64_t alarm_events = 0;
  Tick last_trigger = 0;
};

struct Case {
  std::string app;
  AttackKind attack = AttackKind::kBusLock;
  Scheme scheme = Scheme::kSds;
  std::uint64_t seed = 0;
};

// Which rule decided the recomputed result.
enum class Outcome { kMissed, kNewAlarm, kZeroDelayCredit };

struct Expected {
  DetectionRunResult result;
  Outcome outcome = Outcome::kMissed;
};

// The rules, applied to the per-tick views:
//  - clean stage: each complete eval_interval of clean ticks is a false
//    positive when the detector was active on any of its ticks, else a true
//    negative; a trailing partial interval is not scored;
//  - attack stage: detected at the first tick whose alarm-event count
//    exceeds the count at the attack tick and whose latest alarm was
//    triggered at or after the attack tick; the delay is that tick minus the
//    attack tick;
//  - otherwise, a detector active at the attack tick and on every attack
//    tick is credited as detected with zero delay.
Expected Recompute(const DetectionRunConfig& cfg, Tick attack_start,
                   const TickView& at_attack_start,
                   const std::vector<TickView>& views) {
  Expected e;
  const auto clean = static_cast<std::size_t>(cfg.clean_ticks);
  for (std::size_t begin = 0;
       begin + static_cast<std::size_t>(cfg.eval_interval) <= clean;
       begin += static_cast<std::size_t>(cfg.eval_interval)) {
    bool false_positive = false;
    for (std::size_t i = 0; i < static_cast<std::size_t>(cfg.eval_interval);
         ++i) {
      false_positive |= views[begin + i].active;
    }
    ++(false_positive ? e.result.false_positive_intervals
                      : e.result.true_negative_intervals);
  }
  bool always_active = true;
  for (std::size_t i = clean; i < views.size(); ++i) {
    always_active &= views[i].active;
    if (e.outcome == Outcome::kMissed &&
        views[i].alarm_events > at_attack_start.alarm_events &&
        views[i].last_trigger >= attack_start) {
      e.outcome = Outcome::kNewAlarm;
      e.result.detected = true;
      e.result.detection_delay_ticks = views[i].now - attack_start;
    }
  }
  if (e.outcome == Outcome::kMissed && at_attack_start.active &&
      always_active) {
    e.outcome = Outcome::kZeroDelayCredit;
    e.result.detected = true;
    e.result.detection_delay_ticks = 0;
  }
  return e;
}

TickView View(DetectionEpisode& episode) {
  const detect::Detector& d = episode.detector();
  return {episode.scenario().hypervisor->now(), d.attack_active(),
          d.alarm_events(), d.last_alarm_trigger_tick()};
}

TEST(DetectionEpisodeTest, ResultFollowsTheDocumentedScoringRules) {
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({"kmeans", AttackKind::kBusLock, Scheme::kSds, seed});
    cases.push_back({"pca", AttackKind::kLlcCleansing, Scheme::kSdsB, seed});
    cases.push_back({"pca", AttackKind::kBusLock, Scheme::kSdsP, seed});
    cases.push_back({"terasort", AttackKind::kBusLock, Scheme::kKsTest, seed});
    cases.push_back(
        {"terasort", AttackKind::kLlcCleansing, Scheme::kKsTest, seed});
  }
  int new_alarms = 0;
  int credits = 0;
  int clean_false_positives = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.app + " " + SchemeName(c.scheme) + " seed " +
                 std::to_string(c.seed));
    DetectionRunConfig cfg;
    cfg.app = c.app;
    cfg.attack = c.attack;
    cfg.scheme = c.scheme;
    cfg.profile_ticks = 6000;
    cfg.clean_ticks = 7500;  // seven scored intervals and a partial one
    cfg.attack_ticks = 4000;
    DetectionEpisode episode(cfg, c.seed);
    TickView at_attack_start = View(episode);
    std::vector<TickView> views;
    while (!episode.done()) {
      episode.Step();
      views.push_back(View(episode));
      if (views.size() == static_cast<std::size_t>(cfg.clean_ticks)) {
        at_attack_start = views.back();
        EXPECT_EQ(at_attack_start.now, episode.attack_start());
      }
    }
    ASSERT_EQ(views.size(),
              static_cast<std::size_t>(cfg.clean_ticks + cfg.attack_ticks));
    const Expected want =
        Recompute(cfg, episode.attack_start(), at_attack_start, views);
    const DetectionRunResult got = episode.Result();
    EXPECT_EQ(got.detected, want.result.detected);
    EXPECT_EQ(got.detection_delay_ticks, want.result.detection_delay_ticks);
    EXPECT_EQ(got.false_positive_intervals,
              want.result.false_positive_intervals);
    EXPECT_EQ(got.true_negative_intervals,
              want.result.true_negative_intervals);
    EXPECT_EQ(got.true_negative_intervals + got.false_positive_intervals, 7);
    if (c.seed == 1) {  // reading the detector each tick changes nothing
      const DetectionRunResult run = RunDetectionRun(cfg, c.seed);
      EXPECT_EQ(run.detected, got.detected);
      EXPECT_EQ(run.detection_delay_ticks, got.detection_delay_ticks);
      EXPECT_EQ(run.false_positive_intervals, got.false_positive_intervals);
    }
    new_alarms += want.outcome == Outcome::kNewAlarm ? 1 : 0;
    credits += want.outcome == Outcome::kZeroDelayCredit ? 1 : 0;
    clean_false_positives += got.false_positive_intervals;
  }
  // The cases must exercise every rule, not only agree vacuously: some runs
  // detect through a new alarm, KStest on TeraSort false-alarms clean, and
  // at seed 3 its false alarm latches across the attack tick and never
  // clears, which takes the zero-delay credit.
  EXPECT_GT(new_alarms, 0);
  EXPECT_GT(clean_false_positives, 0);
  EXPECT_GT(credits, 0);
  std::printf("[ scoring ] %zu cases: %d new-alarm detections, %d zero-delay "
              "credits, %d clean false-positive intervals\n",
              cases.size(), new_alarms, credits, clean_false_positives);
}

// The profile stage runs its own world with no telemetry attached, so an
// SDS episode's sim and pcm events are the measured run's alone: they do not
// depend on the profile's length. The eval layer's events (profile stage at
// tick 0, then the clean and attack stages) never go back in tick.
TEST(DetectionEpisodeTest, ProfileWorldTracesNothingIntoTheCallersStream) {
  struct Trace {
    std::vector<std::string> measured;  // sim.* and pcm events, as JSON
    std::vector<Tick> eval_ticks;
    Tick profile_stage_ticks = -1;
  };
  const auto run = [](Tick profile_ticks) {
    telemetry::Telemetry telemetry(1 << 18);
    DetectionRunConfig cfg;  // kmeans, bus-lock, combined SDS
    cfg.profile_ticks = profile_ticks;
    cfg.clean_ticks = 1000;
    cfg.attack_ticks = 1000;
    cfg.scenario.machine.telemetry = &telemetry;
    RunDetectionRun(cfg, 11);
    EXPECT_EQ(telemetry.tracer().dropped(), 0u);

    Trace trace;
    for (std::size_t i = 0; i < telemetry.tracer().retained(); ++i) {
      const telemetry::TraceEvent& e = telemetry.tracer().event(i);
      switch (e.layer) {
        case telemetry::Layer::kSimMachine:
        case telemetry::Layer::kSimCache:
        case telemetry::Layer::kSimBus:
        case telemetry::Layer::kPcm: {
          std::ostringstream json;
          telemetry::WriteEventJson(json, e);
          trace.measured.push_back(json.str());
          break;
        }
        case telemetry::Layer::kEval:
          trace.eval_ticks.push_back(e.tick);
          if (std::string(e.name) == "stage_end" &&
              std::string(e.strs[0].value) == "profile") {
            for (const auto& field : e.nums) {
              if (field.key != nullptr && std::string(field.key) == "ticks") {
                trace.profile_stage_ticks = static_cast<Tick>(field.value);
              }
            }
          }
          break;
        default:
          break;
      }
    }
    return trace;
  };

  const Trace short_profile = run(3000);
  const Trace long_profile = run(6000);
  // Compared event by event, so a failure names the first difference
  // rather than printing two whole streams.
  const std::vector<std::string>& a = short_profile.measured;
  const std::vector<std::string>& b = long_profile.measured;
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.size(), b.size());
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (diff.first != a.end() && diff.second != b.end()) {
    ADD_FAILURE() << "event " << (diff.first - a.begin()) << ": "
                  << *diff.first << " vs " << *diff.second;
  }
  EXPECT_EQ(short_profile.profile_stage_ticks, 3000);
  EXPECT_EQ(long_profile.profile_stage_ticks, 6000);
  for (const Trace* trace : {&short_profile, &long_profile}) {
    ASSERT_FALSE(trace->eval_ticks.empty());
    EXPECT_EQ(trace->eval_ticks.front(), 0);
    for (std::size_t i = 1; i < trace->eval_ticks.size(); ++i) {
      EXPECT_LE(trace->eval_ticks[i - 1], trace->eval_ticks[i]) << i;
    }
  }
}

}  // namespace
}  // namespace sds::eval
