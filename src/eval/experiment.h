// Experiment protocols (paper Section 5.1):
//
//   Stage 1  profile the application clean (build SDS profiles);
//   Stage 2  run without attack (specificity ground truth);
//   Stage 3  run with the attack active (recall / delay ground truth).
//
// Plus the fixed-work overhead protocol of Figure 12 and the clean-run KStest
// false-alarm study of Figure 1 / Section 3.2.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "detect/detector.h"
#include "detect/kstest_detector.h"
#include "detect/params.h"
#include "detect/profile.h"
#include "eval/scenario.h"
#include "pcm/pcm_sampler.h"

namespace sds::fault {
class FaultInjector;
}  // namespace sds::fault

namespace sds::eval {

enum class Scheme : std::uint8_t { kNone, kSdsB, kSdsP, kSds, kKsTest };

const char* SchemeName(Scheme scheme);

struct DetectionRunConfig {
  std::string app = "kmeans";
  AttackKind attack = AttackKind::kBusLock;
  Scheme scheme = Scheme::kSds;
  detect::DetectorParams params;
  detect::KsTestParams ks_params;

  // Stage durations in ticks. Defaults are scaled from the paper's
  // 300 s + 300 s to keep multi-run sweeps fast; benches expose flags to run
  // the full-length protocol. The profile window must be long enough to see
  // every execution phase of phase-switching applications (TeraSort's four
  // phases span ~80 s), or sigma_E underestimates the clean variability.
  Tick profile_ticks = 12000;
  Tick clean_ticks = 15000;
  Tick attack_ticks = 15000;

  // Specificity is computed over decision intervals of this length.
  Tick eval_interval = 1000;

  ScenarioConfig scenario;  // app/attack/seed fields are overwritten
};

struct DetectionRunResult {
  // Binary per-run detection success: did the scheme declare an attack at
  // any point of the attack stage?
  bool detected = false;
  // Ticks from attack start to the first alarm (unset when !detected).
  std::optional<Tick> detection_delay_ticks;
  // Clean-stage decision intervals without / with a false alarm.
  int true_negative_intervals = 0;
  int false_positive_intervals = 0;
  double specificity() const;
  double recall() const { return detected ? 1.0 : 0.0; }
  // Whether profiling classified the application as periodic.
  bool profile_periodic = false;
};

struct RobustnessRunConfig;  // eval/robustness.h
class StageSpan;             // experiment.cpp

// The three-stage protocol, stepped one tick at a time, so callers with
// per-tick work of their own drive the same scoring as RunDetectionRun.
//
// The constructor runs stage 1 (SDS schemes profile the app clean, with the
// catalog's nominal period as fallback; SDS/P must end up periodic), then
// builds and warms the deployment, wires the FaultInjector when `robust` is
// given, builds the detector and opens the clean stage. Each Step() runs one
// tick and scores it: before the attack tick, decision intervals with and
// without a false alarm; from it on, the first NEW alarm event triggered
// no earlier than the attack gives the delay.
class DetectionEpisode {
 public:
  // `robust` (stages 2+3 read through FaultInjector(robust->plan), gate
  // configured by robust->degrade) is only read during construction.
  DetectionEpisode(const DetectionRunConfig& config, std::uint64_t seed,
                   const RobustnessRunConfig* robust = nullptr);
  ~DetectionEpisode();

  void Step();
  bool done() const {
    return elapsed_ == config_.clean_ticks + config_.attack_ticks;
  }
  // Call once, when done(). A state active at the attack tick that never
  // cleared is credited as a zero-delay detection. Emits run_result.
  DetectionRunResult Result();

  Scenario& scenario() { return scenario_; }
  detect::Detector& detector() { return *detector_; }
  const fault::FaultInjector* injector() const { return injector_.get(); }
  const detect::SdsProfile& profile() const { return profile_; }
  Tick attack_start() const { return attack_start_; }  // simulated tick

 private:
  void EndStageIfDue();

  DetectionRunConfig config_;
  telemetry::Telemetry* telemetry_;
  detect::SdsProfile profile_;
  Scenario scenario_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<detect::Detector> detector_;
  std::unique_ptr<StageSpan> stage_;
  Tick attack_start_ = 0;
  Tick elapsed_ = 0;  // stage 2+3 ticks stepped
  bool interval_false_positive_ = false;
  std::uint64_t events_at_attack_start_ = 0;
  bool active_at_attack_start_ = false;
  bool ever_inactive_during_attack_ = false;
  DetectionRunResult result_;
};

// Runs one full three-stage experiment for `seed`.
DetectionRunResult RunDetectionRun(const DetectionRunConfig& config,
                                   std::uint64_t seed);

// -- Profiling / measurement-study helpers -----------------------------------

// Runs the scenario's deployment WITHOUT the attack program active and
// collects `ticks` clean PCM samples of the victim (Stage 1; also the first
// 60 s of Figures 2-6).
std::vector<pcm::PcmSample> CollectCleanSamples(const ScenarioConfig& base,
                                                Tick ticks,
                                                std::uint64_t seed);

// Runs the Section 3.3 measurement study: `total_ticks` of victim samples
// with the attack active from `attack_start` on.
std::vector<pcm::PcmSample> RunMeasurementStudy(const std::string& app,
                                                AttackKind attack,
                                                Tick total_ticks,
                                                Tick attack_start,
                                                std::uint64_t seed);

// -- Overhead protocol (Figure 12) -------------------------------------------

struct OverheadRunConfig {
  std::string app = "kmeans";
  Scheme scheme = Scheme::kNone;
  detect::DetectorParams params;
  detect::KsTestParams ks_params;
  // The measured co-located VM finishes after this many work units.
  std::uint64_t work_target_units = 2000;
  // Safety cap on simulated ticks.
  Tick max_ticks = 200000;
  ScenarioConfig scenario;
};

struct OverheadRunResult {
  // Ticks the measured co-located application VM needed to finish its fixed
  // work with the scheme active.
  Tick completion_ticks = 0;
  bool completed = false;
  // Diagnostics: operations deferred by the monitoring-load model during the
  // measured window.
  std::uint64_t monitor_dropped_ops = 0;
};

// Runs the fixed-work protocol: a protected VM (same app) is monitored by
// `scheme` while a co-located VM runs the measured application to a fixed
// amount of work; no attack is launched. Normalizing by the Scheme::kNone
// completion time yields Figure 12's normalized execution time.
OverheadRunResult RunOverheadRun(const OverheadRunConfig& config,
                                 std::uint64_t seed);

// -- KStest false-alarm study (Figure 1, Section 3.2) ------------------------

struct KsFalseAlarmResult {
  // One KS 0/1 decision sequence per L_R interval.
  std::vector<std::vector<int>> interval_decisions;
  // Fraction of L_R intervals in which KStest would declare an attack
  // (>= 4 consecutive rejections) although none is present.
  double alarm_fraction = 0.0;
};

KsFalseAlarmResult RunKsFalseAlarmStudy(const std::string& app,
                                        const detect::KsTestParams& params,
                                        int lr_intervals, std::uint64_t seed);

}  // namespace sds::eval
