#include "cluster/evacuation.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace sds::cluster {

const char* EvacuationOutcomeName(EvacuationOutcome outcome) {
  switch (outcome) {
    case EvacuationOutcome::kPending:
      return "pending";
    case EvacuationOutcome::kMigrated:
      return "migrated";
    case EvacuationOutcome::kThrottledInPlace:
      return "throttled-in-place";
    case EvacuationOutcome::kAbandoned:
      return "abandoned";
  }
  return "?";
}

EvacuationEngine::EvacuationEngine(Cluster& cluster, HostLifecycle& lifecycle,
                                   Actuator& actuator)
    : cluster_(cluster), lifecycle_(lifecycle), actuator_(actuator) {
  SDS_CHECK(lifecycle.host_count() == cluster.host_count(),
            "lifecycle host count must match the cluster");
}

bool EvacuationEngine::NeedsEvacuation(int host) const {
  switch (lifecycle_.state(host)) {
    case HostState::kDown:
    case HostState::kDead:
      return true;
    case HostState::kUp:
    case HostState::kDegraded:
    case HostState::kRecovering:
      return false;
  }
  return false;
}

int EvacuationEngine::PickDestination(int source_host) const {
  int best = -1;
  int best_free = -1;
  for (int h = 0; h < cluster_.host_count(); ++h) {
    if (h == source_host) continue;
    if (!lifecycle_.placeable(h)) continue;
    if (!actuator_.host_usable(h)) continue;
    if (!cluster_.HasCapacity(h)) continue;
    const int capacity = cluster_.vm_capacity(h);
    const int free = capacity == 0
                         ? std::numeric_limits<int>::max() -
                               cluster_.runnable_vms(h)
                         : capacity - cluster_.runnable_vms(h);
    if (free > best_free) {  // strict: ties keep the lowest host id
      best_free = free;
      best = h;
    }
  }
  return best;
}

void EvacuationEngine::StartTasks() {
  for (int host = 0; host < cluster_.host_count(); ++host) {
    if (!NeedsEvacuation(host)) continue;
    const vm::Hypervisor& hv = cluster_.hypervisor(host);
    for (OwnerId id = 1; id <= hv.vm_count(); ++id) {
      VmRef vm;
      vm.host = host;
      vm.id = id;
      if (!cluster_.IsRunnable(vm)) continue;
      const bool tracked =
          std::any_of(tasks_.begin(), tasks_.end(), [&vm](const Task& t) {
            return t.vm.host == vm.host && t.vm.id == vm.id;
          });
      if (tracked) continue;
      Task task;
      task.record = records_.size();
      task.vm = vm;
      tasks_.push_back(task);
      EvacuationRecord record;
      record.from = vm;
      record.started = cluster_.now();
      records_.push_back(record);
      ++stats_.started;
    }
  }
}

void EvacuationEngine::FinishMigrated(Task& task, const VmRef& placement) {
  EvacuationRecord& record = records_[task.record];
  record.to = placement;
  record.finished = cluster_.now();
  record.attempts = task.retry.attempts();
  record.outcome = EvacuationOutcome::kMigrated;
  ++stats_.migrated;
  stats_.evacuation_ticks +=
      static_cast<std::uint64_t>(record.finished - record.started);
  task.done = true;
  if (on_migrated_) on_migrated_(record.from, placement);
}

void EvacuationEngine::FinishThrottled(Task& task) {
  EvacuationRecord& record = records_[task.record];
  record.finished = cluster_.now();
  record.attempts = task.retry.attempts();
  record.outcome = EvacuationOutcome::kThrottledInPlace;
  ++stats_.throttled_in_place;
  cluster_.hypervisor(task.vm.host).ThrottleVm(task.vm.id, kThrottleTicks);
  task.done = true;
}

void EvacuationEngine::DriveTask(Task& task) {
  const Tick now = cluster_.now();

  if (!task.retry.outstanding()) {
    if (!task.retry.ready(now)) return;

    if (!cluster_.IsRunnable(task.vm)) {
      EvacuationRecord& record = records_[task.record];
      record.finished = now;
      record.attempts = task.retry.attempts();
      record.outcome = EvacuationOutcome::kAbandoned;
      ++stats_.abandoned;
      task.done = true;
      return;
    }

    if (task.retry.exhausted()) {
      FinishThrottled(task);
      return;
    }

    const int dest = PickDestination(task.vm.host);
    if (dest < 0) {
      ++stats_.no_destination;
      task.retry.FailAttempt(now);
      return;
    }
    task.retry.Track(actuator_.SubmitMigrate(task.vm, dest), now);
    // A null actuation plan completes commands synchronously at submit; the
    // poll below handles the terminal result in the same tick so fault-free
    // evacuation converges in one pass.
  }

  switch (task.retry.PollCommand(actuator_, now)) {
    case RetryDriver::Poll::kSucceeded:
      FinishMigrated(task, task.retry.result().placement);
      return;
    case RetryDriver::Poll::kFailed:
      ++stats_.retries;
      return;
    case RetryDriver::Poll::kTimedOut:
      ++stats_.timeouts;
      return;
    case RetryDriver::Poll::kIdle:
    case RetryDriver::Poll::kInFlight:
      return;
  }
}

void EvacuationEngine::OnTick() {
  StartTasks();
  for (Task& task : tasks_) {
    if (!task.done) DriveTask(task);
  }
}

bool EvacuationEngine::quiescent() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const Task& t) { return t.done; });
}

}  // namespace sds::cluster
