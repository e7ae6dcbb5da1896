#include "eval/experiment.h"

#include <chrono>
#include <memory>

#include "common/check.h"
#include "detect/sds_detector.h"
#include "eval/robustness.h"
#include "fault/fault_injector.h"
#include "telemetry/telemetry.h"
#include "workloads/catalog.h"

namespace sds::eval {

namespace tel = sds::telemetry;

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

  // Closes the stage at `end_tick`, `stage_ticks` long (by default, the
  // ticks since the start tick).
  void Finish(Tick end_tick) { Finish(end_tick, end_tick - start_tick_); }
  void Finish(Tick end_tick, Tick stage_ticks) {
    if (!telemetry_ || finished_) return;
    finished_ = true;
    if (entered_) telemetry_->profiler().Exit();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const double ticks = static_cast<double>(stage_ticks);
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

namespace {

// Ticks run before any sampling so cold-cache transients do not pollute
// profiles or ground truth.
constexpr Tick kWarmupTicks = 500;

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

// Warms `config`'s deployment up, then samples its victim for `ticks`.
std::vector<pcm::PcmSample> SampleVictim(const ScenarioConfig& config,
                                         Tick ticks) {
  Scenario s = BuildScenario(config);
  s.RunTicks(kWarmupTicks);
  pcm::PcmSampler sampler(*s.hypervisor, s.victim);
  sampler.Start();
  return pcm::CollectSamples(*s.hypervisor, sampler, ticks);
}

// Stage 1 for `config.scheme` (a DetectionRunConfig or OverheadRunConfig):
// profiles config.app clean for `ticks`, with the nominal-period fallback
// for the schemes that watch periods. KStest self-calibrates online and the
// no-scheme baseline runs no detector, so both get an empty profile.
// `periodic`, when given, receives whether profiling itself found a period.
// The profile world is a separate simulation with its own clock, so it runs
// with no telemetry attached: the caller's stream gets only the profile
// stage's span and events, stamped at tick 0 of the measured world, with the
// profile length in their `ticks` field.
template <typename Config>
detect::SdsProfile ProfileFor(const Config& config, Tick ticks,
                              std::uint64_t seed, bool* periodic) {
  detect::SdsProfile profile;
  if (config.scheme == Scheme::kKsTest || config.scheme == Scheme::kNone) {
    return profile;
  }
  StageSpan span(config.scenario.machine.telemetry, "profile", "eval.profile",
                 0);
  ScenarioConfig base = config.scenario;
  base.app = config.app;
  base.machine.telemetry = nullptr;
  profile = detect::BuildSdsProfile(CollectCleanSamples(base, ticks, seed),
                                    config.params);
  if (periodic) *periodic = profile.periodic();
  if (config.scheme == Scheme::kSdsP || config.scheme == Scheme::kSds) {
    ApplyNominalPeriodFallback(config.app, config.params, profile);
  }
  span.Finish(0, ticks);
  return profile;
}

// The detector `config.scheme` names, watching `target`; nullptr for the
// no-scheme baseline. KStest draws its reference-collection offset from
// `rng`. SDS/P on a profile without a period runs boundary-only, so the
// overhead sweep over every application stays runnable.
template <typename Config>
std::unique_ptr<detect::Detector> MakeDetector(
    const Config& config, const detect::SdsProfile& profile, Rng& rng,
    vm::Hypervisor& hypervisor, OwnerId target,
    pcm::SampleSource* source = nullptr,
    const detect::DegradeConfig& degrade = {}) {
  if (config.scheme == Scheme::kNone) return nullptr;
  if (config.scheme == Scheme::kKsTest) {
    detect::KsTestParams kp = config.ks_params;
    kp.initial_offset = static_cast<Tick>(
        rng.UniformInt(static_cast<std::uint64_t>(kp.l_r)));
    return std::make_unique<detect::KsTestDetector>(
        hypervisor, target, kp, detect::KsIdentificationParams{}, source,
        degrade);
  }
  const detect::SdsMode mode =
      config.scheme == Scheme::kSds ? detect::SdsMode::kCombined
      : config.scheme == Scheme::kSdsP && profile.periodic()
          ? detect::SdsMode::kPeriodOnly
          : detect::SdsMode::kBoundaryOnly;
  return std::make_unique<detect::SdsDetector>(
      hypervisor, target, profile, config.params, mode, source, degrade);
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
  return SampleVictim(config, ticks);
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
  return SampleVictim(config, total_ticks);
}

DetectionEpisode::DetectionEpisode(const DetectionRunConfig& config,
                                   std::uint64_t seed,
                                   const RobustnessRunConfig* robust)
    : config_(config), telemetry_(config.scenario.machine.telemetry) {
  SDS_CHECK(config.attack != AttackKind::kNone,
            "detection runs need an attack in stage 3");
  SDS_CHECK(config.scheme != Scheme::kNone, "detection runs need a scheme");
  SDS_CHECK(config.eval_interval >= 1, "decision intervals must be >= 1 tick");
  Rng rng(seed);
  const std::uint64_t profile_seed = rng();
  const std::uint64_t main_seed = rng();

  profile_ = ProfileFor(config, config.profile_ticks, profile_seed,
                        &result_.profile_periodic);
  SDS_CHECK(config.scheme != Scheme::kSdsP || profile_.periodic(),
            "SDS/P requested for a non-periodic application");

  ScenarioConfig main = config.scenario;
  main.app = config.app;
  main.attack = config.attack;
  main.seed = main_seed;
  attack_start_ = kWarmupTicks + config.clean_ticks;
  main.attack_start = attack_start_;
  main.attack_stop = -1;
  scenario_ = BuildScenario(main);
  scenario_.RunTicks(kWarmupTicks);

  if (robust) {
    injector_ = std::make_unique<fault::FaultInjector>(
        *scenario_.hypervisor, scenario_.victim, robust->plan);
  }
  detector_ = MakeDetector(config, profile_, rng, *scenario_.hypervisor,
                           scenario_.victim, injector_.get(),
                           robust ? robust->degrade : detect::DegradeConfig{});
  stage_ = std::make_unique<StageSpan>(telemetry_, "clean", "eval.clean",
                                       scenario_.hypervisor->now());
  EndStageIfDue();
}

DetectionEpisode::~DetectionEpisode() = default;

void DetectionEpisode::Step() {
  const bool clean = elapsed_ < config_.clean_ticks;
  scenario_.hypervisor->RunTick();
  detector_->OnTick();
  ++elapsed_;
  if (clean) {
    interval_false_positive_ |= detector_->attack_active();
    if (elapsed_ % config_.eval_interval == 0) {
      ++(interval_false_positive_ ? result_.false_positive_intervals
                                  : result_.true_negative_intervals);
      interval_false_positive_ = false;
    }
  } else {
    ever_inactive_during_attack_ |= !detector_->attack_active();
    if (!result_.detected &&
        detector_->alarm_events() > events_at_attack_start_ &&
        detector_->last_alarm_trigger_tick() >= attack_start_) {
      result_.detected = true;
      result_.detection_delay_ticks =
          scenario_.hypervisor->now() - attack_start_;
    }
  }
  EndStageIfDue();
}

void DetectionEpisode::EndStageIfDue() {
  const Tick now = scenario_.hypervisor->now();
  if (elapsed_ == config_.clean_ticks) {
    stage_->Finish(now);
    events_at_attack_start_ = detector_->alarm_events();
    active_at_attack_start_ = detector_->attack_active();
    // Timeline marker: the incident reconstructor (telemetry/timeline.h)
    // anchors its delay decomposition on this event when the caller does
    // not pass the attack tick explicitly.
    if (telemetry_ && telemetry_->tracer().enabled(tel::Layer::kEval)) {
      telemetry_->tracer().Emit(
          tel::MakeEvent(attack_start_, tel::Layer::kEval,
                         "attack_phase_begin")
              .Str("scheme", SchemeName(config_.scheme)));
    }
    stage_ = std::make_unique<StageSpan>(telemetry_, "attack", "eval.attack",
                                         now);
  }
  if (done()) stage_->Finish(now);
}

DetectionRunResult DetectionEpisode::Result() {
  SDS_CHECK(done(), "Result() before the attack stage ended");
  if (!result_.detected && active_at_attack_start_ &&
      !ever_inactive_during_attack_) {
    result_.detected = true;
    result_.detection_delay_ticks = 0;
  }
  if (telemetry_ && telemetry_->tracer().enabled(tel::Layer::kEval)) {
    telemetry_->tracer().Emit(
        tel::MakeEvent(scenario_.hypervisor->now(), tel::Layer::kEval,
                       "run_result")
            .Str("scheme", SchemeName(config_.scheme))
            .Num("detected", result_.detected ? 1.0 : 0.0)
            .Num("delay_ticks", static_cast<double>(
                                    result_.detection_delay_ticks.value_or(-1)))
            .Num("false_positive_intervals", result_.false_positive_intervals)
            .Num("true_negative_intervals", result_.true_negative_intervals));
  }
  return result_;
}

DetectionRunResult RunDetectionRun(const DetectionRunConfig& config,
                                   std::uint64_t seed) {
  DetectionEpisode episode(config, seed);
  while (!episode.done()) episode.Step();
  return episode.Result();
}

DetectionRunResult RunDetectionRunFaulted(const DetectionRunConfig& config,
                                          std::uint64_t seed,
                                          const RobustnessRunConfig& robust,
                                          RobustnessCounters* counters) {
  DetectionEpisode episode(config, seed, &robust);
  while (!episode.done()) episode.Step();
  if (counters) {
    counters->fault = episode.injector()->stats();
    const auto* sds = dynamic_cast<detect::SdsDetector*>(&episode.detector());
    const auto* ks = dynamic_cast<detect::KsTestDetector*>(&episode.detector());
    counters->degrade = sds ? sds->gate().stats() : ks->gate().stats();
    if (ks) counters->ks_abandoned_collections = ks->abandoned_collections();
  }
  return episode.Result();
}

OverheadRunResult RunOverheadRun(const OverheadRunConfig& config,
                                 std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t profile_seed = rng();
  const std::uint64_t main_seed = rng();
  const detect::SdsProfile profile =
      ProfileFor(config, /*ticks=*/6000, profile_seed, nullptr);

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
  const auto detector =
      MakeDetector(config, profile, rng, hypervisor, protected_vm);

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
