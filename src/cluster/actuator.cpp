#include "cluster/actuator.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sds::cluster {

namespace tel = sds::telemetry;

const char* ActuationOpName(ActuationOp op) {
  switch (op) {
    case ActuationOp::kMigrate:
      return "migrate";
    case ActuationOp::kStop:
      return "stop";
  }
  return "?";
}

const char* CommandStatusName(CommandStatus status) {
  switch (status) {
    case CommandStatus::kInFlight:
      return "in-flight";
    case CommandStatus::kSucceeded:
      return "succeeded";
    case CommandStatus::kFailed:
      return "failed";
    case CommandStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

const char* ActuationErrorName(ActuationError error) {
  switch (error) {
    case ActuationError::kNone:
      return "none";
    case ActuationError::kAborted:
      return "aborted";
    case ActuationError::kHostDown:
      return "host-down";
    case ActuationError::kNoCapacity:
      return "no-capacity";
    case ActuationError::kRejected:
      return "rejected";
    case ActuationError::kConflict:
      return "conflict";
    case ActuationError::kSourceGone:
      return "source-gone";
  }
  return "?";
}

namespace {

// Which fault kinds can hit which command type. Inapplicable kinds never
// consume a draw, so a stop-only workload and a migrate-only workload see
// independent, stable fault schedules from the same plan seed.
bool Applies(fault::ActuationFaultKind kind, ActuationOp op) {
  using K = fault::ActuationFaultKind;
  switch (kind) {
    case K::kCommandLost:
      return true;
    case K::kMigrationAbort:
    case K::kSpareHostDown:
    case K::kSpareAtCapacity:
      return op == ActuationOp::kMigrate;
    case K::kStopRejected:
      return op == ActuationOp::kStop;
    case K::kKindCount:
      break;
  }
  return false;
}

}  // namespace

Actuator::Actuator(Cluster& cluster, const fault::ActuationFaultPlan& plan)
    : cluster_(cluster), plan_(plan), rng_(plan.seed) {
  SDS_CHECK(plan_.latency_min_ticks >= 0 &&
                plan_.latency_max_ticks >= plan_.latency_min_ticks,
            "bad actuation latency range");
  SDS_CHECK(plan_.host_down_min_ticks > 0 &&
                plan_.host_down_max_ticks >= plan_.host_down_min_ticks,
            "bad host-down duration range");
  plan_.CheckRates();
  host_down_until_.assign(static_cast<std::size_t>(cluster_.host_count()), 0);
  telemetry_ = cluster_.machine(0).telemetry();
  if (telemetry_) {
    for (std::size_t k = 0; k < fault::kActuationFaultKindCount; ++k) {
      t_injected_[k] = telemetry_->metrics().GetCounter(
          std::string("actuation.injected.") +
          fault::ActuationFaultKindName(
              static_cast<fault::ActuationFaultKind>(k)));
    }
    t_commands_ = telemetry_->metrics().GetCounter("actuation.commands");
    t_failed_ = telemetry_->metrics().GetCounter("actuation.failed");
  }
}

CommandId Actuator::SubmitMigrate(const VmRef& vm, int destination_host) {
  SDS_CHECK(destination_host >= 0 && destination_host < cluster_.host_count(),
            "no such destination host");
  SDS_CHECK(destination_host != vm.host,
            "migration target must be a different host");
  return Submit(ActuationOp::kMigrate, vm, destination_host);
}

CommandId Actuator::SubmitStop(const VmRef& vm) {
  return Submit(ActuationOp::kStop, vm, -1);
}

CommandId Actuator::Submit(ActuationOp op, const VmRef& vm,
                           int destination_host) {
  SDS_CHECK(vm.valid(), "invalid VM reference");
  const Tick now = cluster_.now();

  Command command;
  command.result.op = op;
  command.result.target = vm;
  command.result.destination = destination_host;
  command.result.placement = vm;
  command.result.submitted = now;

  if (HasOutstanding(vm)) {
    // Idempotency guard: never two concurrent actuations of one VM. The
    // rejection is synchronous and consumes no fault draws, so a duplicate
    // dispatch cannot shift the fault schedule of the retried original.
    ++stats_.conflicts;
    command.result.status = CommandStatus::kFailed;
    command.result.error = ActuationError::kConflict;
    command.result.completed = now;
    commands_.push_back(command);
    return static_cast<CommandId>(commands_.size());
  }

  ++stats_.commands;
  if (t_commands_) t_commands_->Add();

  // Fault draws, in a fixed order per accepted submission: latency first,
  // then one Bernoulli per applicable enabled kind in enum order (outcomes
  // do not affect later draws). The first hit wins; kSpareHostDown draws its
  // window length immediately so the stream stays aligned.
  Tick latency = 0;
  if (plan_.latency_max_ticks > 0) {
    latency = rng_.UniformInt(plan_.latency_min_ticks, plan_.latency_max_ticks);
  }
  command.due = now + latency;

  Tick down_ticks = 0;
  for (std::size_t k = 0; k < fault::kActuationFaultKindCount; ++k) {
    const auto kind = static_cast<fault::ActuationFaultKind>(k);
    if (!Applies(kind, op)) continue;
    const double r = plan_.rate(kind);
    if (r <= 0.0 || !rng_.Bernoulli(r)) continue;
    if (kind == fault::ActuationFaultKind::kSpareHostDown) {
      down_ticks =
          rng_.UniformInt(plan_.host_down_min_ticks, plan_.host_down_max_ticks);
    }
    if (command.injected == fault::ActuationFaultKind::kKindCount) {
      command.injected = kind;
    }
  }

  if (command.injected == fault::ActuationFaultKind::kCommandLost) {
    command.lost = true;
    ++stats_.lost;
  } else if (command.injected == fault::ActuationFaultKind::kSpareHostDown &&
             down_ticks > 0) {
    auto& until =
        host_down_until_[static_cast<std::size_t>(destination_host)];
    if (now + down_ticks > until) until = now + down_ticks;
  }
  if (command.injected != fault::ActuationFaultKind::kKindCount) {
    RecordInjection(command.injected, command);
  }

  commands_.push_back(command);
  const auto id = static_cast<CommandId>(commands_.size());
  if (!command.lost && command.due <= now) Complete(commands_.back());
  return id;
}

bool Actuator::HasOutstanding(const VmRef& vm) const {
  for (const Command& c : commands_) {
    if (c.result.status == CommandStatus::kInFlight && !c.lost &&
        c.result.target.host == vm.host && c.result.target.id == vm.id) {
      return true;
    }
  }
  return false;
}

void Actuator::OnTick() {
  const Tick now = cluster_.now();
  // Completing a migration appends to commands_? It does not (Cluster holds
  // its own records), but index-based iteration stays safe regardless.
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    Command& c = commands_[i];
    if (c.result.status != CommandStatus::kInFlight || c.lost) continue;
    if (c.due <= now) Complete(c);
  }
}

void Actuator::Cancel(CommandId id) {
  SDS_CHECK(id >= 1 && id <= commands_.size(), "no such command");
  Command& c = commands_[id - 1];
  if (c.result.status != CommandStatus::kInFlight) return;
  ++stats_.cancelled;
  c.lost = false;
  c.result.status = CommandStatus::kCancelled;
  c.result.completed = cluster_.now();
}

const CommandResult& Actuator::result(CommandId id) const {
  SDS_CHECK(id >= 1 && id <= commands_.size(), "no such command");
  return commands_[id - 1].result;
}

bool Actuator::host_usable(int host) const {
  SDS_CHECK(host >= 0 && host < cluster_.host_count(), "no such host");
  return cluster_.now() >= host_down_until_[static_cast<std::size_t>(host)];
}

void Actuator::Complete(Command& command) {
  using K = fault::ActuationFaultKind;
  switch (command.injected) {
    case K::kMigrationAbort:
      Finish(command, CommandStatus::kFailed, ActuationError::kAborted);
      return;
    case K::kSpareHostDown:
      Finish(command, CommandStatus::kFailed, ActuationError::kHostDown);
      return;
    case K::kSpareAtCapacity:
      Finish(command, CommandStatus::kFailed, ActuationError::kNoCapacity);
      return;
    case K::kStopRejected:
      Finish(command, CommandStatus::kFailed, ActuationError::kRejected);
      return;
    default:
      break;
  }
  Execute(command);
}

void Actuator::Execute(Command& command) {
  const VmRef& target = command.result.target;
  switch (command.result.op) {
    case ActuationOp::kMigrate: {
      const int dest = command.result.destination;
      if (!cluster_.IsRunnable(target)) {
        Finish(command, CommandStatus::kFailed, ActuationError::kSourceGone);
        return;
      }
      if (!host_usable(dest)) {
        // An earlier command knocked this host down; fail fast without
        // consuming another injection.
        Finish(command, CommandStatus::kFailed, ActuationError::kHostDown);
        return;
      }
      if (!cluster_.host_placeable(dest)) {
        // The host lifecycle took the destination down while this command
        // was in flight — the mid-actuation host
        // death case. Same error as an injected down window: callers retry
        // against a fresh placement decision.
        Finish(command, CommandStatus::kFailed, ActuationError::kHostDown);
        return;
      }
      if (!cluster_.HasCapacity(dest)) {
        Finish(command, CommandStatus::kFailed, ActuationError::kNoCapacity);
        return;
      }
      command.result.placement = cluster_.Migrate(target, dest);
      Finish(command, CommandStatus::kSucceeded, ActuationError::kNone);
      return;
    }
    case ActuationOp::kStop:
      // Stopping a stopped VM is a no-op: stop is naturally idempotent.
      cluster_.StopVm(target);
      Finish(command, CommandStatus::kSucceeded, ActuationError::kNone);
      return;
  }
}

void Actuator::Finish(Command& command, CommandStatus status,
                      ActuationError error) {
  command.result.status = status;
  command.result.error = error;
  command.result.completed = cluster_.now();
  const auto latency =
      static_cast<std::uint64_t>(command.result.completed -
                                 command.result.submitted);
  if (status == CommandStatus::kSucceeded) {
    ++stats_.completed;
    stats_.latency_ticks += latency;
  } else if (status == CommandStatus::kFailed) {
    ++stats_.failed;
    stats_.latency_ticks += latency;
    if (t_failed_) t_failed_->Add();
  }
}

void Actuator::RecordInjection(fault::ActuationFaultKind kind,
                               const Command& command) {
  const auto k = static_cast<std::size_t>(kind);
  ++stats_.injected[k];
  if (t_injected_[k]) t_injected_[k]->Add();
  if (telemetry_ && telemetry_->tracer().enabled(tel::Layer::kFault)) {
    telemetry_->tracer().Emit(
        tel::MakeEvent(cluster_.now(), tel::Layer::kFault,
                       fault::ActuationFaultKindName(kind),
                       command.result.target.id)
            .Str("op", ActuationOpName(command.result.op))
            .Num("host", static_cast<double>(command.result.target.host)));
  }
}

Tick RetryBackoff(int attempts) {
  SDS_CHECK(attempts >= 1, "backoff follows at least one attempt");
  constexpr Tick kBackoffBase = 8;
  constexpr Tick kBackoffCap = 64;
  return std::min(kBackoffBase << std::min(attempts - 1, 30), kBackoffCap);
}

void RetryDriver::Track(CommandId id, Tick now) {
  ++attempts_;
  command_ = id;
  dispatched_ = now;
}

void RetryDriver::FailAttempt(Tick now) {
  ++attempts_;
  next_attempt_ = now + RetryBackoff(attempts_);
}

RetryDriver::Poll RetryDriver::PollCommand(Actuator& actuator, Tick now) {
  if (command_ == 0) return Poll::kIdle;
  const CommandResult& result = actuator.result(command_);
  if (result.status == CommandStatus::kInFlight) {
    if (now - dispatched_ < kCommandTimeout) return Poll::kInFlight;
    // Lost (or pathologically slow): cancel so a re-dispatch cannot
    // double-actuate.
    actuator.Cancel(command_);
    command_ = 0;
    next_attempt_ = now + RetryBackoff(attempts_);
    return Poll::kTimedOut;
  }
  command_ = 0;
  result_ = result;
  if (result.status == CommandStatus::kSucceeded) return Poll::kSucceeded;
  next_attempt_ = now + RetryBackoff(attempts_);
  return Poll::kFailed;
}

void RetryDriver::Reset() {
  attempts_ = 0;
  next_attempt_ = 0;
}

}  // namespace sds::cluster
