#include "eval/experiment.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/check.h"
#include "detect/sds_detector.h"
#include "eval/robustness.h"
#include "fault/fault_injector.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::eval {
namespace {

namespace tel = sds::telemetry;

// Ticks run before any sampling so cold-cache transients do not pollute
// profiles or ground truth.
constexpr Tick kWarmupTicks = 500;

// Emits eval-layer stage begin/end events carrying per-stage wall-clock time
// and simulated-tick throughput, so experiment time budgets are visible in
// the same stream as the simulator's own events, and opens a matching
// profiler span (span_name must be a string literal) so per-tick spans nest
// under their stage in the span tree. No-op without telemetry.
class StageSpan {
 public:
  StageSpan(tel::Telemetry* t, const char* stage, const char* span_name,
            Tick start_tick)
      : telemetry_(t), stage_(stage), start_tick_(start_tick) {
    if (!telemetry_) return;
    if (telemetry_->profiler().enabled()) {
      telemetry_->profiler().Enter(telemetry_->profiler().RegisterSpan(
          span_name));
      entered_ = true;
    }
    if (telemetry_->tracer().enabled(tel::Layer::kEval)) {
      telemetry_->tracer().Emit(
          tel::MakeEvent(start_tick_, tel::Layer::kEval, "stage_begin")
              .Str("stage", stage_));
    }
    start_ = std::chrono::steady_clock::now();
  }

  void Finish(Tick end_tick) {
    if (!telemetry_ || finished_) return;
    finished_ = true;
    if (entered_) telemetry_->profiler().Exit();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const double ticks = static_cast<double>(end_tick - start_tick_);
    if (telemetry_->tracer().enabled(tel::Layer::kEval)) {
      telemetry_->tracer().Emit(
          tel::MakeEvent(end_tick, tel::Layer::kEval, "stage_end")
              .Str("stage", stage_)
              .Num("ticks", ticks)
              .Num("wall_ms", wall_ms)
              .Num("ticks_per_sec",
                   wall_ms > 0.0 ? ticks / (wall_ms / 1000.0) : 0.0));
    }
    telemetry_->metrics()
        .GetGauge(std::string("eval.stage.") + stage_ + ".wall_ms")
        ->Set(wall_ms);
  }

  ~StageSpan() { Finish(start_tick_); }

 private:
  tel::Telemetry* telemetry_;
  const char* stage_;
  Tick start_tick_;
  bool finished_ = false;
  bool entered_ = false;  // profiler span open, to be closed by Finish
  std::chrono::steady_clock::time_point start_;
};

detect::SdsMode ModeFor(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSdsB:
      return detect::SdsMode::kBoundaryOnly;
    case Scheme::kSdsP:
      return detect::SdsMode::kPeriodOnly;
    default:
      return detect::SdsMode::kCombined;
  }
}

// If profiling failed to classify a known-periodic application (short or
// unlucky profile window), fall back to the catalog's nominal period so that
// SDS/P remains runnable; the run result records the classification miss.
void ApplyNominalPeriodFallback(const std::string& app,
                                const detect::DetectorParams& params,
                                detect::SdsProfile& profile) {
  const auto& info = workloads::AppInfoFor(app);
  if (!info.periodic || profile.periodic()) return;
  detect::PeriodProfile fallback;
  fallback.period = static_cast<double>(info.nominal_period_ticks) /
                    static_cast<double>(params.step);
  fallback.strength = 0.0;
  profile.access_period = fallback;
}

}  // namespace

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kNone:
      return "none";
    case Scheme::kSdsB:
      return "SDS/B";
    case Scheme::kSdsP:
      return "SDS/P";
    case Scheme::kSds:
      return "SDS";
    case Scheme::kKsTest:
      return "KStest";
  }
  return "?";
}

double DetectionRunResult::specificity() const {
  const int total = true_negative_intervals + false_positive_intervals;
  if (total == 0) return 1.0;
  return static_cast<double>(true_negative_intervals) /
         static_cast<double>(total);
}

std::vector<pcm::PcmSample> CollectCleanSamples(const ScenarioConfig& base,
                                                Tick ticks,
                                                std::uint64_t seed) {
  ScenarioConfig config = base;
  config.attack = AttackKind::kNone;
  config.seed = seed;
  Scenario s = BuildScenario(config);
  s.RunTicks(kWarmupTicks);
  pcm::PcmSampler sampler(*s.hypervisor, s.victim);
  sampler.Start();
  return pcm::CollectSamples(*s.hypervisor, sampler, ticks);
}

std::vector<pcm::PcmSample> RunMeasurementStudy(const std::string& app,
                                                AttackKind attack,
                                                Tick total_ticks,
                                                Tick attack_start,
                                                std::uint64_t seed) {
  ScenarioConfig config;
  config.app = app;
  config.attack = attack;
  config.attack_start = kWarmupTicks + attack_start;
  config.seed = seed;
  Scenario s = BuildScenario(config);
  s.RunTicks(kWarmupTicks);
  pcm::PcmSampler sampler(*s.hypervisor, s.victim);
  sampler.Start();
  return pcm::CollectSamples(*s.hypervisor, sampler, total_ticks);
}

namespace {

// Shared body of RunDetectionRun and RunDetectionRunFaulted. With
// `robust == nullptr` this is the plain accuracy protocol (and the detector
// constructions below delegate to exactly the pre-seam behavior, pinned by
// the golden regression test); with a RobustnessRunConfig, stages 2+3 read
// the monitoring plane through a FaultInjector and the configured
// degradation policies.
DetectionRunResult RunDetectionRunImpl(const DetectionRunConfig& config,
                                       std::uint64_t seed,
                                       const RobustnessRunConfig* robust,
                                       RobustnessCounters* counters) {
  SDS_CHECK(config.attack != AttackKind::kNone,
            "detection runs need an attack in stage 3");
  Rng rng(seed);
  const std::uint64_t profile_seed = rng();
  const std::uint64_t main_seed = rng();
  tel::Telemetry* telemetry = config.scenario.machine.telemetry;

  DetectionRunResult result;

  // Stage 1: profile (SDS schemes only; KStest self-calibrates online).
  detect::SdsProfile profile;
  if (config.scheme != Scheme::kKsTest) {
    StageSpan span(telemetry, "profile", "eval.profile", 0);
    ScenarioConfig base = config.scenario;
    base.app = config.app;
    const auto clean =
        CollectCleanSamples(base, config.profile_ticks, profile_seed);
    profile = detect::BuildSdsProfile(clean, config.params);
    result.profile_periodic = profile.periodic();
    if (config.scheme == Scheme::kSdsP || config.scheme == Scheme::kSds) {
      ApplyNominalPeriodFallback(config.app, config.params, profile);
    }
    if (config.scheme == Scheme::kSdsP) {
      SDS_CHECK(profile.periodic(),
                "SDS/P requested for a non-periodic application");
    }
    span.Finish(config.profile_ticks);
  }

  // Stages 2 + 3: clean then attacked.
  ScenarioConfig main = config.scenario;
  main.app = config.app;
  main.attack = config.attack;
  main.seed = main_seed;
  const Tick attack_start = kWarmupTicks + config.clean_ticks;
  main.attack_start = attack_start;
  main.attack_stop = -1;
  Scenario s = BuildScenario(main);
  s.RunTicks(kWarmupTicks);

  std::unique_ptr<fault::FaultInjector> injector;
  if (robust) {
    injector = std::make_unique<fault::FaultInjector>(*s.hypervisor, s.victim,
                                                      robust->plan);
  }
  const detect::DegradeConfig degrade =
      robust ? robust->degrade : detect::DegradeConfig{};

  std::unique_ptr<detect::Detector> detector;
  detect::SdsDetector* sds = nullptr;
  detect::KsTestDetector* ks = nullptr;
  if (config.scheme == Scheme::kKsTest) {
    detect::KsTestParams kp = config.ks_params;
    kp.initial_offset = static_cast<Tick>(
        rng.UniformInt(static_cast<std::uint64_t>(kp.l_r)));
    auto d = std::make_unique<detect::KsTestDetector>(
        *s.hypervisor, s.victim, kp, detect::KsIdentificationParams{},
        injector.get(), degrade);
    ks = d.get();
    detector = std::move(d);
  } else {
    auto d = std::make_unique<detect::SdsDetector>(
        *s.hypervisor, s.victim, profile, config.params,
        ModeFor(config.scheme), injector.get(), degrade);
    sds = d.get();
    detector = std::move(d);
  }

  // Stage 2: clean. Specificity over fixed decision intervals.
  StageSpan clean_span(telemetry, "clean", "eval.clean", s.hypervisor->now());
  bool interval_false_positive = false;
  Tick interval_elapsed = 0;
  for (Tick t = 0; t < config.clean_ticks; ++t) {
    s.hypervisor->RunTick();
    detector->OnTick();
    interval_false_positive |= detector->attack_active();
    if (++interval_elapsed == config.eval_interval) {
      if (interval_false_positive) {
        ++result.false_positive_intervals;
      } else {
        ++result.true_negative_intervals;
      }
      interval_false_positive = false;
      interval_elapsed = 0;
    }
  }
  clean_span.Finish(s.hypervisor->now());

  // Stage 3: under attack. The first NEW alarm event gives the detection
  // delay; a false-positive alarm state latched across the attack start must
  // re-raise to count (it does, since the attack keeps the statistics
  // anomalous). As a fallback, a state that was already active at attack
  // start and never clears is credited as a zero-delay detection — the
  // detector is, after all, reporting an attack throughout.
  const std::uint64_t events_at_attack_start = detector->alarm_events();
  const bool active_at_attack_start = detector->attack_active();
  bool ever_inactive_during_attack = false;
  // Timeline marker: the incident reconstructor (telemetry/timeline.h)
  // anchors its delay decomposition on this event when the caller does not
  // pass the attack tick explicitly.
  if (telemetry && telemetry->tracer().enabled(tel::Layer::kEval)) {
    telemetry->tracer().Emit(tel::MakeEvent(attack_start, tel::Layer::kEval,
                                            "attack_phase_begin")
                                 .Str("scheme", SchemeName(config.scheme)));
  }
  StageSpan attack_span(telemetry, "attack", "eval.attack",
                        s.hypervisor->now());
  for (Tick t = 0; t < config.attack_ticks; ++t) {
    s.hypervisor->RunTick();
    detector->OnTick();
    ever_inactive_during_attack |= !detector->attack_active();
    if (!result.detected &&
        detector->alarm_events() > events_at_attack_start &&
        detector->last_alarm_trigger_tick() >= attack_start) {
      result.detected = true;
      result.detection_delay_ticks = s.hypervisor->now() - attack_start;
    }
  }
  attack_span.Finish(s.hypervisor->now());
  if (!result.detected && active_at_attack_start &&
      !ever_inactive_during_attack) {
    result.detected = true;
    result.detection_delay_ticks = 0;
  }
  if (telemetry && telemetry->tracer().enabled(tel::Layer::kEval)) {
    telemetry->tracer().Emit(
        tel::MakeEvent(s.hypervisor->now(), tel::Layer::kEval, "run_result")
            .Str("scheme", SchemeName(config.scheme))
            .Num("detected", result.detected ? 1.0 : 0.0)
            .Num("delay_ticks",
                 static_cast<double>(result.detection_delay_ticks.value_or(-1)))
            .Num("false_positive_intervals", result.false_positive_intervals)
            .Num("true_negative_intervals", result.true_negative_intervals));
  }
  if (counters) {
    if (injector) counters->fault = injector->stats();
    counters->degrade = sds ? sds->gate().stats() : ks->gate().stats();
    if (ks) counters->ks_abandoned_collections = ks->abandoned_collections();
  }
  return result;
}

}  // namespace

DetectionRunResult RunDetectionRun(const DetectionRunConfig& config,
                                   std::uint64_t seed) {
  return RunDetectionRunImpl(config, seed, nullptr, nullptr);
}

DetectionRunResult RunDetectionRunFaulted(const DetectionRunConfig& config,
                                          std::uint64_t seed,
                                          const RobustnessRunConfig& robust,
                                          RobustnessCounters* counters) {
  return RunDetectionRunImpl(config, seed, &robust, counters);
}

OverheadRunResult RunOverheadRun(const OverheadRunConfig& config,
                                 std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t profile_seed = rng();
  const std::uint64_t main_seed = rng();

  // Profile the protected application when the scheme needs one.
  detect::SdsProfile profile;
  if (config.scheme == Scheme::kSdsB || config.scheme == Scheme::kSdsP ||
      config.scheme == Scheme::kSds) {
    ScenarioConfig base = config.scenario;
    base.app = config.app;
    const auto clean = CollectCleanSamples(base, 6000, profile_seed);
    profile = detect::BuildSdsProfile(clean, config.params);
    if (config.scheme == Scheme::kSdsP || config.scheme == Scheme::kSds) {
      ApplyNominalPeriodFallback(config.app, config.params, profile);
    }
    if (config.scheme == Scheme::kSdsP && !profile.periodic()) {
      // SDS/P is undefined for this application; treat as boundary-only so
      // overhead sweeps over all apps stay runnable.
      profile.access_period.reset();
      profile.miss_period.reset();
    }
  }

  // Deployment: protected VM (id 1), measured co-located VM (id 2) and six
  // benign tenants (ids 3-8). No attack VM is created.
  sim::Machine machine(config.scenario.machine);
  Rng root(main_seed);
  vm::Hypervisor hypervisor(machine, config.scenario.hypervisor, root.Fork());
  const OwnerId protected_vm =
      hypervisor.CreateVm("protected-" + config.app,
                          workloads::MakeApp(config.app));
  const OwnerId measured_vm =
      hypervisor.CreateVm("measured-" + config.app,
                          workloads::MakeApp(config.app));
  for (int i = 0; i < 6; ++i) {
    hypervisor.CreateVm("benign-" + std::to_string(i),
                        workloads::MakeBenignUtility());
  }

  for (Tick t = 0; t < kWarmupTicks; ++t) hypervisor.RunTick();
  const std::uint64_t work_base =
      hypervisor.vm(measured_vm).workload().work_completed();

  std::unique_ptr<detect::Detector> detector;
  if (config.scheme == Scheme::kKsTest) {
    detect::KsTestParams kp = config.ks_params;
    kp.initial_offset = static_cast<Tick>(
        rng.UniformInt(static_cast<std::uint64_t>(kp.l_r)));
    detector = std::make_unique<detect::KsTestDetector>(hypervisor,
                                                        protected_vm, kp);
  } else if (config.scheme != Scheme::kNone) {
    detect::SdsMode mode = ModeFor(config.scheme);
    if (config.scheme == Scheme::kSdsP && !profile.periodic()) {
      mode = detect::SdsMode::kBoundaryOnly;
    }
    detector = std::make_unique<detect::SdsDetector>(
        hypervisor, protected_vm, profile, config.params, mode);
  }

  OverheadRunResult result;
  for (Tick t = 0; t < config.max_ticks; ++t) {
    hypervisor.RunTick();
    if (detector) detector->OnTick();
    if (hypervisor.vm(measured_vm).workload().work_completed() - work_base >=
        config.work_target_units) {
      result.completed = true;
      result.completion_ticks = t + 1;
      break;
    }
  }
  result.monitor_dropped_ops = hypervisor.monitor_dropped_ops();
  return result;
}

KsFalseAlarmResult RunKsFalseAlarmStudy(const std::string& app,
                                        const detect::KsTestParams& params,
                                        int lr_intervals, std::uint64_t seed) {
  SDS_CHECK(lr_intervals >= 1, "need at least one interval");
  ScenarioConfig config;
  config.app = app;
  config.attack = AttackKind::kNone;
  config.seed = seed;
  Scenario s = BuildScenario(config);
  s.RunTicks(kWarmupTicks);

  detect::KsTestParams kp = params;
  // Trigger the first reference collection right away, and disable the
  // identification sweep: the study reproduces Figure 1's uninterrupted
  // per-interval 0/1 decision strips, and the alarm rule (>= 4 consecutive
  // rejections) is evaluated directly on the decisions below.
  kp.initial_offset = kp.l_r - 1;
  detect::KsIdentificationParams ident;
  ident.enabled = false;
  detect::KsTestDetector detector(*s.hypervisor, s.victim, kp, ident);

  const Tick study_start = s.hypervisor->now();
  const Tick total = static_cast<Tick>(lr_intervals) * kp.l_r + kp.w_r + 1;
  for (Tick t = 0; t < total; ++t) {
    s.hypervisor->RunTick();
    detector.OnTick();
  }

  KsFalseAlarmResult result;
  result.interval_decisions.assign(static_cast<std::size_t>(lr_intervals),
                                   {});
  for (const auto& d : detector.decisions()) {
    const Tick rel = d.tick - study_start;
    const auto idx = static_cast<std::size_t>(rel / kp.l_r);
    if (idx >= result.interval_decisions.size()) continue;
    result.interval_decisions[idx].push_back(d.rejected() ? 1 : 0);
  }

  int alarmed = 0;
  for (const auto& interval : result.interval_decisions) {
    int consecutive = 0;
    bool alarm = false;
    for (int v : interval) {
      consecutive = (v == 1) ? consecutive + 1 : 0;
      if (consecutive >= params.consecutive_rejections) alarm = true;
    }
    if (alarm) ++alarmed;
  }
  result.alarm_fraction =
      static_cast<double>(alarmed) / static_cast<double>(lr_intervals);
  return result;
}

}  // namespace sds::eval
