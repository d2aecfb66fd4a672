#include "src/sim/simulation.h"

#include <stdexcept>

#include "src/fault/fault.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/sim/resource.h"

namespace pvm {

namespace {

// splitmix64 finalizer: decorrelates the (seed, seq) pair into a uniform tie
// key so kRandom explores a fresh interleaving per schedule seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Simulation::~Simulation() { abandon_pending(); }

void Simulation::abandon_pending() {
  // Drop queued resumptions first, then reclaim root frames. Destroying a
  // suspended coroutine frame is safe; destroying a completed one is too.
  queue_.clear();
  for (auto& handle : roots_) {
    if (handle) {
      handle.destroy();
      handle = nullptr;
    }
  }
  // Frame destructors may have released Resources, which re-schedules their
  // (now destroyed) waiters; purge those dangling handles without resuming.
  queue_.clear();
}

void Simulation::set_spans(obs::SpanRecorder* spans) {
  spans_ = spans;
  if (spans_ != nullptr) {
    spans_->bind(&now_, &active_root_);
  }
  // Exemplar context for the collector, regardless of attachment order.
  if (ts_ != nullptr) {
    ts_->bind_context(&active_root_, spans_);
  }
}

void Simulation::set_faults(fault::FaultInjector* faults) {
  faults_ = faults;
  if (faults_ != nullptr) {
    faults_->bind(&now_);
  }
}

void Simulation::set_flight(flight::FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) {
    flight_->bind(&now_, &active_root_);
    flight_->set_ts(ts_);
  }
}

void Simulation::set_ts(ts::Collector* collector) {
  ts_ = collector;
  if (ts_ != nullptr) {
    ts_->bind(&now_);
    ts_->bind_context(&active_root_, spans_);
  }
  // Wire the flight-event bridge regardless of attachment order.
  if (flight_ != nullptr) {
    flight_->set_ts(ts_);
  }
}

void Simulation::set_schedule_policy(SchedulePolicy policy, std::uint64_t seed) {
  policy_ = policy;
  schedule_seed_ = seed;
}

std::uint64_t Simulation::random_tie_key(std::uint64_t seq) const {
  return mix64(schedule_seed_ ^ (seq * 0xd1342543de82ef95ull));
}

void Simulation::bind_or_reject_thread() const {
  if (owner_key_ == nullptr) {
    owner_key_ = thread_key();
    return;
  }
  throw std::logic_error(
      "Simulation used from two threads: a Simulation is single-threaded by "
      "design; run whole simulations on separate threads instead (pvm::sweep)");
}

void Simulation::spawn(Task<void> task, std::string name) {
  assert_thread_confined();
  auto handle = task.release();
  if (!handle) {
    throw std::invalid_argument("Simulation::spawn: empty task");
  }
  handle.promise().sim = this;
  const std::int64_t root = static_cast<std::int64_t>(roots_.size());
  roots_.push_back(handle);
  root_names_.push_back(name.empty() ? "task#" + std::to_string(root) : std::move(name));
  schedule(handle, now_, root);
}

// Batched dispatch: pop the whole front run of same-timestamp events in one
// queue operation, then resume them back-to-back. Sound only under FIFO ties
// (see CalendarQueue::pop_min_run); the other policies dispatch one event
// per queue operation, which pops in the identical (when, tie, seq) order.
// If a resume throws, the un-dispatched tail is re-enqueued so the queue is
// left exactly as the unbatched loop would leave it.
std::size_t Simulation::dispatch_min_run() {
  if (policy_ != SchedulePolicy::kFifo) {
    const SimEvent event = queue_.pop();
    now_ = event.when;
    active_root_ = event.root;
    event.handle.resume();
    active_root_ = -1;
    ++events_processed_;
    return 1;
  }
  SimEvent batch[kDispatchBatch];
  const std::size_t n = queue_.pop_min_run(batch, kDispatchBatch);
  std::size_t i = 0;
  try {
    for (; i < n; ++i) {
      now_ = batch[i].when;
      active_root_ = batch[i].root;
      batch[i].handle.resume();
      active_root_ = -1;
      ++events_processed_;
    }
  } catch (...) {
    for (std::size_t j = i + 1; j < n; ++j) {
      queue_.push(batch[j]);
    }
    throw;
  }
  return n;
}

std::uint64_t Simulation::run() {
  assert_thread_confined();
  const std::uint64_t start = events_processed_;
  while (!queue_.empty()) {
    dispatch_min_run();
  }
  rethrow_failed_roots();
  return events_processed_ - start;
}

std::uint64_t Simulation::run_until(SimTime deadline) {
  assert_thread_confined();
  std::uint64_t processed = 0;
  // Events at exactly `deadline` run (inclusive bound), including cascades
  // they schedule at the deadline; later events stay queued — the contract
  // pinned by RunUntilBoundaryTest in sim_test.cc. A dispatched run shares
  // one timestamp, so the deadline check per run bounds every event in it.
  while (!queue_.empty() && queue_.min_when() <= deadline) {
    processed += dispatch_min_run();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  rethrow_failed_roots();
  return processed;
}

bool Simulation::all_tasks_done() const {
  for (auto handle : roots_) {
    if (handle && !handle.done()) {
      return false;
    }
  }
  return true;
}

std::size_t Simulation::pending_task_count() const {
  std::size_t pending = 0;
  for (auto handle : roots_) {
    if (handle && !handle.done()) {
      ++pending;
    }
  }
  return pending;
}

void Simulation::register_resource(Resource* resource) {
  resource->registry_slot_ = resources_.size();
  resources_.push_back(resource);
}

void Simulation::unregister_resource(Resource* resource) {
  resources_[resource->registry_slot_] = nullptr;
  if (++dead_resources_ * 2 > resources_.size()) {
    compact_resources();
  }
}

void Simulation::compact_resources() const {
  std::size_t live = 0;
  for (Resource* resource : resources_) {
    if (resource != nullptr) {
      resource->registry_slot_ = live;
      resources_[live++] = resource;
    }
  }
  resources_.resize(live);
  dead_resources_ = 0;
}

std::string Simulation::blocked_report() const {
  std::string report;
  std::vector<std::int64_t> pending;
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (roots_[i] && !roots_[i].done()) {
      pending.push_back(static_cast<std::int64_t>(i));
    }
  }
  if (pending.empty() && diagnostics_.empty()) {
    return report;
  }
  for (const std::string& line : diagnostics_) {
    report += "  diagnostic: " + line + "\n";
  }
  if (pending.empty()) {
    return report;
  }
  report += std::to_string(pending.size()) + "/" + std::to_string(roots_.size()) +
            " root tasks pending:\n";
  for (const std::int64_t root : pending) {
    report += "  - \"" + root_names_[static_cast<std::size_t>(root)] + "\"";
    // Name every resource FIFO queue this root task is parked in.
    bool parked = false;
    for (const Resource* resource : resources()) {
      for (const auto& waiter : resource->waiters()) {
        if (waiter.root == root) {
          report += parked ? ", " : " waiting on ";
          report += "\"" + resource->name() + "\" (queued " +
                    std::to_string(now_ - waiter.enqueued) + " ns ago)";
          parked = true;
        }
      }
    }
    if (!parked) {
      report += " (not in any resource queue: lost wakeup or un-fired await)";
    }
    report += "\n";
  }
  for (const Resource* resource : resources()) {
    if (resource->queue_depth() == 0) {
      continue;
    }
    report += "  resource \"" + resource->name() + "\": capacity " +
              std::to_string(resource->capacity()) + ", " +
              std::to_string(resource->queue_depth()) + " queued, ages ns [";
    // Queue ages in FIFO order: oldest waiter first. A deadlocked queue shows
    // monotonically decreasing ages; one stale outlier points at the waiter
    // whose wakeup was lost.
    bool first = true;
    for (const auto& waiter : resource->waiters()) {
      report += (first ? "" : ", ") + std::to_string(now_ - waiter.enqueued);
      first = false;
    }
    report += "]\n";
  }
  return report;
}

void Simulation::rethrow_failed_roots() {
  for (auto handle : roots_) {
    if (handle && handle.done() && handle.promise().exception) {
      std::exception_ptr exception = handle.promise().exception;
      handle.promise().exception = nullptr;
      std::rethrow_exception(exception);
    }
  }
}

}  // namespace pvm
