// FIFO-queued resources for modelling contended structures.
//
// A `Resource` with capacity 1 models a lock (the paper's `mmu_lock`, the L0
// hypervisor's serialization point, a per-shadow-page `pt_lock`, ...); larger
// capacities model pools. Acquisition order is strictly FIFO so results are
// deterministic. Contention statistics (total wait, acquisitions, peak queue
// depth) are recorded for reporting. Each waiter remembers the root task it
// belongs to, so `Simulation::blocked_report()` can name who is parked where
// when a run deadlocks.
//
// Usage inside a Task:
//   ScopedResource guard = co_await lock.scoped();   // released at scope exit
// or the manual form:
//   co_await lock.acquire();
//   ...
//   lock.release();

#ifndef PVM_SRC_SIM_RESOURCE_H_
#define PVM_SRC_SIM_RESOURCE_H_

#include <coroutine>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/sim/simulation.h"

namespace pvm {

class Resource;

// FIFO queue over a vector and a head index. Allocates nothing until the
// first push; clears (keeping its capacity) whenever it drains, and compacts
// stably once the head passes half the vector, so a queue that never drains
// stays within twice its peak depth.
template <typename T>
class VectorFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const T& front() const { return items_[head_]; }
  // Live items, oldest first.
  std::span<const T> items() const { return std::span<const T>(items_).subspan(head_); }

  void push_back(const T& item) { items_.push_back(item); }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ > items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

// RAII guard: releases the resource when destroyed (coroutine frames keep the
// guard alive across suspension points, so this is suspension-safe).
class ScopedResource {
 public:
  ScopedResource() = default;
  explicit ScopedResource(Resource* resource) : resource_(resource) {}
  ScopedResource(ScopedResource&& other) noexcept
      : resource_(std::exchange(other.resource_, nullptr)) {}
  ScopedResource& operator=(ScopedResource&& other) noexcept;
  ScopedResource(const ScopedResource&) = delete;
  ScopedResource& operator=(const ScopedResource&) = delete;
  ~ScopedResource();

  void release();

 private:
  Resource* resource_ = nullptr;
};

class Resource {
 public:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t root;     // owning root task at enqueue time (-1 if unknown)
    SimTime enqueued = 0;  // virtual time the waiter joined the queue
  };

  Resource(Simulation& sim, std::string name, std::uint32_t capacity = 1)
      : sim_(&sim), name_(std::move(name)), capacity_(capacity), available_(capacity) {
    sim_->register_resource(this);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;
  ~Resource() { sim_->unregister_resource(this); }

  struct AcquireAwaiter {
    Resource* resource;
    SimTime enqueue_time = 0;
    bool waited = false;
    obs::SpanRecorder::Token wait_span{};

    bool await_ready() noexcept {
      if (resource->available_ > 0) {
        --resource->available_;
        ++resource->acquisitions_;
        resource->note_acquired();
        if (flight::FlightRecorder* flight = resource->sim_->flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_id(flight), 0, 0);
        }
        return true;
      }
      return false;
    }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      waited = true;
      enqueue_time = resource->sim_->now();
      if (obs::SpanRecorder* spans = resource->sim_->spans()) {
        wait_span = spans->begin(obs::Phase::kLockWait);
      }
      resource->waiters_.push_back(Waiter{h, resource->sim_->active_root(), enqueue_time});
      if (resource->waiters_.size() > resource->peak_queue_depth_) {
        resource->peak_queue_depth_ = resource->waiters_.size();
      }
    }
    void await_resume() noexcept {
      if (waited) {
        // release() transferred ownership to us directly (available_ was not
        // incremented), so only the statistics need updating here.
        ++resource->acquisitions_;
        ++resource->contended_acquisitions_;
        const SimTime wait = resource->sim_->now() - enqueue_time;
        resource->total_wait_ns_ += wait;
        resource->wait_hist_.record(wait);
        if (wait_span.valid()) {
          if (obs::SpanRecorder* spans = resource->sim_->spans()) {
            spans->end_lock_wait(wait_span, resource->name_);
          }
        }
        resource->note_acquired();
        if (flight::FlightRecorder* flight = resource->sim_->flight()) {
          flight->record(flight::EventKind::kLockAcquire, resource->flight_id(flight), wait,
                         1);
        }
      }
    }
  };

  struct ScopedAwaiter {
    AcquireAwaiter inner;

    bool await_ready() noexcept { return inner.await_ready(); }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) noexcept {
      inner.await_suspend(h);
    }
    ScopedResource await_resume() noexcept {
      inner.await_resume();
      return ScopedResource(inner.resource);
    }
  };

  // Awaitable acquire; caller must later call release().
  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  // Awaitable acquire returning an RAII guard.
  ScopedAwaiter scoped() { return ScopedAwaiter{AcquireAwaiter{this}}; }

  // Releases one unit; resumes the oldest waiter (scheduled at current time).
  void release();

  // True if an acquire() would not block right now.
  bool available() const { return available_ > 0; }

  const std::string& name() const { return name_; }
  std::uint32_t capacity() const { return capacity_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  // Acquisitions that queued (did not take the uncontended fast path).
  std::uint64_t contended_acquisitions() const { return contended_acquisitions_; }
  SimTime total_wait_ns() const { return total_wait_ns_; }
  // Total time units were held, release-to-release. Exact for capacity 1
  // (locks); FIFO-approximate for pools, where releases are matched to the
  // oldest outstanding acquisition.
  SimTime total_hold_ns() const { return total_hold_ns_; }
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }
  std::size_t queue_depth() const { return waiters_.size(); }
  // Queued waiters, oldest first.
  std::span<const Waiter> waiters() const { return waiters_.items(); }
  // Distribution of contended waits (uncontended acquisitions are not
  // recorded: the interesting signal is queueing, not the fast path).
  const LatencyHistogram& wait_histogram() const { return wait_hist_; }
  const LatencyHistogram& hold_histogram() const { return hold_hist_; }

 private:
  friend struct AcquireAwaiter;
  friend class Simulation;  // owns registry_slot_

  void note_acquired() { hold_starts_.push_back(sim_->now()); }

  // Interned flight-recorder id for this resource's name, resolved lazily on
  // first acquisition so construction order does not pin the id space.
  std::uint64_t flight_id(flight::FlightRecorder* flight) {
    if (flight_name_id_ == kNoFlightId) {
      flight_name_id_ = flight->intern(name_);
    }
    return flight_name_id_;
  }

  static constexpr std::uint64_t kNoFlightId = ~0ull;

  Simulation* sim_;
  std::string name_;
  std::uint32_t capacity_;
  std::uint32_t available_;
  VectorFifo<Waiter> waiters_;

  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_acquisitions_ = 0;
  SimTime total_wait_ns_ = 0;
  SimTime total_hold_ns_ = 0;
  std::size_t peak_queue_depth_ = 0;
  VectorFifo<SimTime> hold_starts_;
  LatencyHistogram wait_hist_;
  LatencyHistogram hold_hist_;
  std::uint64_t flight_name_id_ = kNoFlightId;
  std::size_t registry_slot_ = 0;  // index into Simulation::resources_
};

}  // namespace pvm

#endif  // PVM_SRC_SIM_RESOURCE_H_
