// Actuator: the fallible control-plane seam between mitigation policy and
// the Cluster primitives (the actuation-plane counterpart of the
// pcm::SampleSource seam from the monitoring-plane robustness work).
//
// Callers never invoke Cluster::Migrate / StopVm directly (the
// `det-actuation-idempotent` lint rule enforces this inside src/cluster);
// they SUBMIT commands and poll the command's state while the cluster ticks:
//
//   submit -> in-flight (latency drawn from the plan) -> succeeded | failed
//
// A fault::ActuationFaultPlan decides, deterministically from its private
// RNG stream, whether a command is lost in transport (accepted, never
// acknowledged — only a caller timeout catches it), aborts mid-flight,
// bounces off a spare host that is down or out of capacity, or is rejected
// outright. With a null plan every command executes synchronously at submit
// and the seam is bit-transparent (pinned by the actuation golden test).
//
// Idempotency contract: at most one outstanding command per target VM.
// Submitting against a VM with a command still in flight fails synchronously
// with kConflict instead of double-actuating, and Cancel() guarantees an
// abandoned (typically lost) command will never execute afterwards — which
// together make blind re-dispatch after a timeout safe.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/types.h"
#include "fault/actuation_plan.h"

namespace sds::telemetry {
class Counter;
class Telemetry;
}  // namespace sds::telemetry

namespace sds::cluster {

enum class ActuationOp : std::uint8_t { kMigrate, kStop };
const char* ActuationOpName(ActuationOp op);

enum class CommandStatus : std::uint8_t {
  // Accepted, not yet acknowledged. Lost commands stay here forever — by
  // design the caller cannot distinguish "slow" from "gone" except by
  // timeout.
  kInFlight,
  kSucceeded,
  kFailed,
  kCancelled,
};
const char* CommandStatusName(CommandStatus status);

enum class ActuationError : std::uint8_t {
  kNone,
  kAborted,      // migration aborted mid-flight
  kHostDown,     // destination host inside a down window
  kNoCapacity,   // destination rejected the placement
  kRejected,     // stop bounced off the hypervisor
  kConflict,     // another command for this VM is still outstanding
  kSourceGone,   // source VM no longer runnable at execution time
};
const char* ActuationErrorName(ActuationError error);

// Identifies a submitted command; 0 is never a valid id.
using CommandId = std::uint32_t;

struct CommandResult {
  ActuationOp op = ActuationOp::kMigrate;
  CommandStatus status = CommandStatus::kInFlight;
  ActuationError error = ActuationError::kNone;
  VmRef target;          // the VM the command was submitted against
  int destination = -1;  // migrations only
  // New placement after a successful migration (== target for a stop).
  VmRef placement;
  Tick submitted = 0;
  Tick completed = kInvalidTick;  // ack tick; kInvalidTick while in flight
};

class Actuator {
 public:
  // `plan` is copied; a default-constructed plan makes the actuator a
  // zero-latency infallible passthrough.
  explicit Actuator(Cluster& cluster,
                    const fault::ActuationFaultPlan& plan = {});

  // Submit a command. Commands whose drawn latency is zero execute before
  // the call returns (their result is immediately terminal). Returns the
  // command id; query `result(id)` for progress.
  CommandId SubmitMigrate(const VmRef& vm, int destination_host);
  CommandId SubmitStop(const VmRef& vm);

  // Completes every command whose latency has elapsed. Call once per
  // cluster tick (extra calls within one tick are harmless).
  void OnTick();

  // Abandons a command: it will never execute, even if it was merely slow.
  // No-op for commands already terminal.
  void Cancel(CommandId id);

  const CommandResult& result(CommandId id) const;

  // False while `host` is inside an injected down window.
  bool host_usable(int host) const;

  const fault::ActuationFaultPlan& plan() const { return plan_; }
  const fault::ActuationFaultStats& stats() const { return stats_; }
  Cluster& cluster() { return cluster_; }

 private:
  struct Command {
    CommandResult result;
    Tick due = 0;                 // execution tick (submit + drawn latency)
    bool lost = false;            // never acknowledges
    // Fault drawn at submit to apply at completion (kNone = clean).
    fault::ActuationFaultKind injected =
        fault::ActuationFaultKind::kKindCount;
  };

  CommandId Submit(ActuationOp op, const VmRef& vm, int destination_host);
  // True when another command targeting `vm` is still in flight.
  bool HasOutstanding(const VmRef& vm) const;
  void Complete(Command& command);
  void Execute(Command& command);
  void Finish(Command& command, CommandStatus status, ActuationError error);
  void RecordInjection(fault::ActuationFaultKind kind, const Command& command);

  Cluster& cluster_;
  fault::ActuationFaultPlan plan_;
  Rng rng_;
  std::vector<Command> commands_;  // id - 1 indexes this vector
  std::vector<Tick> host_down_until_;

  fault::ActuationFaultStats stats_;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* t_injected_[fault::kActuationFaultKindCount] = {};
  telemetry::Counter* t_commands_ = nullptr;
  telemetry::Counter* t_failed_ = nullptr;
};

// The retry policy every Actuator caller shares (DESIGN.md §12, §17).
//
// Ticks an outstanding command may stay unacknowledged before its caller
// cancels it and counts the attempt as failed (catches lost commands).
inline constexpr Tick kCommandTimeout = 64;
// Attempts per action before the caller's exhaustion policy takes over.
inline constexpr int kMaxAttempts = 5;
// Duration of the in-place hypervisor throttle both engines fall back to.
inline constexpr Tick kThrottleTicks = 4000;

// Ticks to wait after the `attempts`-th failed attempt (attempts >= 1):
// 8, 16, 32, 64, and 64 for every later attempt.
Tick RetryBackoff(int attempts);

// One caller's retry loop over one command at a time: counts attempts,
// polls the outstanding command, cancels it once kCommandTimeout ticks pass
// without an ack, and after any failed attempt holds the next one back by
// RetryBackoff. What an exhausted loop does is the caller's policy.
class RetryDriver {
 public:
  enum class Poll : std::uint8_t {
    kIdle,       // no command outstanding
    kInFlight,   // outstanding and still inside the timeout
    kSucceeded,  // acknowledged; result() holds the command's result
    kFailed,     // failed (or was cancelled by someone else); backing off
    kTimedOut,   // cancelled here for want of an ack; backing off
  };

  // Counts an attempt that submitted `id` at `now`.
  void Track(CommandId id, Tick now);
  // Counts an attempt that could not submit anything, and backs off.
  void FailAttempt(Tick now);
  // Polls the outstanding command; a terminal or timed-out command is no
  // longer outstanding afterwards.
  Poll PollCommand(Actuator& actuator, Tick now);
  // Forgets attempts and backoff: the next attempt starts a new action.
  void Reset();

  bool outstanding() const { return command_ != 0; }
  bool ready(Tick now) const { return now >= next_attempt_; }
  bool exhausted() const { return attempts_ >= kMaxAttempts; }
  int attempts() const { return attempts_; }
  const CommandResult& result() const { return result_; }

 private:
  CommandId command_ = 0;
  Tick dispatched_ = kInvalidTick;
  Tick next_attempt_ = 0;
  int attempts_ = 0;
  CommandResult result_;
};

}  // namespace sds::cluster
