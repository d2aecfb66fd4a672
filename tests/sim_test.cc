// Unit tests for the discrete-event simulation core: clock semantics, task
// composition, FIFO resources, determinism, and failure propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {
namespace {

Task<void> delay_then_record(Simulation& sim, SimTime delay, std::vector<SimTime>& log) {
  co_await sim.delay(delay);
  log.push_back(sim.now());
}

TEST(SimulationTest, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(SimulationTest, DelayAdvancesClock) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 250, log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 250u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(SimulationTest, MultipleDelaysAccumulate) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn([](Simulation& s, std::vector<SimTime>& out) -> Task<void> {
    co_await s.delay(100);
    out.push_back(s.now());
    co_await s.delay(50);
    out.push_back(s.now());
    co_await s.delay(0);
    out.push_back(s.now());
  }(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 150, 150}));
}

TEST(SimulationTest, TasksInterleaveInTimeOrder) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 300, log));
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 200, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
}

TEST(SimulationTest, TiesBreakInSpawnOrder) {
  Simulation sim;
  std::vector<int> order;
  auto make = [&](int id) -> Task<void> {
    co_await sim.delay(10);
    order.push_back(id);
  };
  sim.spawn(make(1));
  sim.spawn(make(2));
  sim.spawn(make(3));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<int> subtask_returning(Simulation& sim, int value) {
  co_await sim.delay(10);
  co_return value;
}

TEST(SimulationTest, NestedTaskReturnsValueAndChargesTime) {
  Simulation sim;
  int got = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await subtask_returning(s, 42);
  }(sim, got));
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sim.now(), 10u);
}

Task<int> deeply_nested(Simulation& sim, int depth) {
  if (depth == 0) {
    co_await sim.delay(1);
    co_return 1;
  }
  const int below = co_await deeply_nested(sim, depth - 1);
  co_return below + 1;
}

TEST(SimulationTest, DeepNestingWorks) {
  Simulation sim;
  int result = 0;
  sim.spawn([](Simulation& s, int& out) -> Task<void> {
    out = co_await deeply_nested(s, 200);
  }(sim, result));
  sim.run();
  EXPECT_EQ(result, 201);
  EXPECT_EQ(sim.now(), 1u);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 900, log));
  sim.run_until(500);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_FALSE(sim.all_tasks_done());
  EXPECT_EQ(sim.pending_task_count(), 1u);
  sim.run();
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(sim.all_tasks_done());
}

// ---- run_until boundary contract ----
//
// These tests pin the deadline semantics that were previously implicit in
// the heap's pop order, so the calendar-queue engine is held to exactly the
// same contract as the binary heap it replaced:
//   1. events scheduled *exactly at* the deadline are processed (inclusive),
//   2. including cascades: an event at the deadline that schedules further
//      work at the same timestamp runs that work too,
//   3. events strictly after the deadline stay queued,
//   4. the clock lands exactly on the deadline even when the queue drains
//      early or is empty,
//   5. a deadline in the past is a no-op: no events run, the clock never
//      moves backwards.

TEST(RunUntilBoundaryTest, EventExactlyAtDeadlineRuns) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  const std::uint64_t processed = sim.run_until(100);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  EXPECT_GE(processed, 1u);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, CascadeAtDeadlineRunsToCompletion) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& out) -> Task<void> {
    co_await s.delay(50);
    out.push_back(1);
    co_await s.delay(0);  // re-scheduled at exactly the deadline
    out.push_back(2);
    co_await s.delay(0);
    out.push_back(3);
  }(sim, log));
  sim.run_until(50);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, EventJustAfterDeadlineStaysQueued) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 101, log));
  sim.run_until(100);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_task_count(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 101}));
}

TEST(RunUntilBoundaryTest, DeadlineCascadeSpillsPastDeadlineStaysQueued) {
  // An event at the deadline that schedules work *after* the deadline: the
  // at-deadline part runs, the spill stays queued, and the clock does not
  // advance past the deadline.
  Simulation sim;
  std::vector<int> log;
  sim.spawn([](Simulation& s, std::vector<int>& out) -> Task<void> {
    co_await s.delay(70);
    out.push_back(1);
    co_await s.delay(1);  // 71 > deadline 70
    out.push_back(2);
  }(sim, log));
  sim.run_until(70);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 70u);
  EXPECT_FALSE(sim.all_tasks_done());
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 71u);
}

TEST(RunUntilBoundaryTest, ClockLandsOnDeadlineWhenQueueDrainsEarly) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 10, log));
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_TRUE(sim.all_tasks_done());
}

TEST(RunUntilBoundaryTest, ClockLandsOnDeadlineWithEmptyQueue) {
  Simulation sim;
  EXPECT_EQ(sim.run_until(250), 0u);
  EXPECT_EQ(sim.now(), 250u);
}

TEST(RunUntilBoundaryTest, PastDeadlineIsNoOpAndClockNeverMovesBackwards) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 100, log));
  sim.spawn(delay_then_record(sim, 300, log));
  sim.run_until(200);
  EXPECT_EQ(sim.now(), 200u);
  // Deadline earlier than now(): nothing runs, the clock stays put.
  EXPECT_EQ(sim.run_until(50), 0u);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(log, (std::vector<SimTime>{100}));
  // Re-running at the *same* deadline is also a no-op.
  EXPECT_EQ(sim.run_until(200), 0u);
  EXPECT_EQ(sim.now(), 200u);
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{100, 300}));
}

TEST(RunUntilBoundaryTest, SameContractUnderEveryTieBreakPolicy) {
  // The inclusive-deadline rule is policy-independent: all three tie-break
  // policies process exactly the at-deadline set, in their own order.
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    Simulation sim;
    sim.set_schedule_policy(policy, 7);
    std::vector<int> ran;
    auto make = [&](int id) -> Task<void> {
      co_await sim.delay(40);
      ran.push_back(id);
    };
    sim.spawn(make(1));
    sim.spawn(make(2));
    sim.spawn(make(3));
    sim.run_until(40);
    std::vector<int> sorted = ran;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3})) << schedule_policy_name(policy);
    EXPECT_EQ(sim.now(), 40u);
    EXPECT_TRUE(sim.all_tasks_done());
  }
}

TEST(SimulationTest, ExceptionInRootTaskPropagates) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(5);
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SimulationTest, ExceptionInSubtaskPropagatesToParent) {
  Simulation sim;
  bool caught = false;
  sim.spawn([](Simulation& s, bool& flag) -> Task<void> {
    auto failing = [](Simulation& inner) -> Task<void> {
      co_await inner.delay(1);
      throw std::logic_error("inner");
    };
    try {
      co_await failing(s);
    } catch (const std::logic_error&) {
      flag = true;
    }
  }(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(ResourceTest, UncontendedAcquireDoesNotWait) {
  Simulation sim;
  Resource lock(sim, "lock");
  SimTime acquired_at = 1;
  sim.spawn([](Simulation& s, Resource& r, SimTime& at) -> Task<void> {
    ScopedResource guard = co_await r.scoped();
    at = s.now();
  }(sim, lock, acquired_at));
  sim.run();
  EXPECT_EQ(acquired_at, 0u);
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.total_wait_ns(), 0u);
  EXPECT_TRUE(lock.available());
}

Task<void> hold_lock(Simulation& sim, Resource& lock, SimTime hold, std::vector<SimTime>& log) {
  ScopedResource guard = co_await lock.scoped();
  log.push_back(sim.now());
  co_await sim.delay(hold);
}

TEST(ResourceTest, ContendedAcquiresSerializeFifo) {
  Simulation sim;
  Resource lock(sim, "mmu_lock");
  std::vector<SimTime> log;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_lock(sim, lock, 100, log));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 100, 200, 300}));
  EXPECT_EQ(lock.acquisitions(), 4u);
  // Waiters queued for 100+200+300 ns total.
  EXPECT_EQ(lock.total_wait_ns(), 600u);
  EXPECT_EQ(lock.peak_queue_depth(), 3u);
}

TEST(ResourceTest, CapacityTwoAllowsTwoConcurrentHolders) {
  Simulation sim;
  Resource pool(sim, "pool", 2);
  std::vector<SimTime> log;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(hold_lock(sim, pool, 100, log));
  }
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0, 0, 100, 100}));
}

TEST(ResourceTest, ManualAcquireRelease) {
  Simulation sim;
  Resource lock(sim, "lock");
  std::vector<int> order;
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await r.acquire();
    out.push_back(1);
    co_await s.delay(10);
    r.release();
  }(sim, lock, order));
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await r.acquire();
    out.push_back(2);
    r.release();
    co_await s.delay(0);
  }(sim, lock, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 10u);
}

TEST(ResourceTest, MoveAssignGuardReleases) {
  Simulation sim;
  Resource lock(sim, "lock");
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    ScopedResource a = co_await r.scoped();
    EXPECT_FALSE(r.available());
    a = ScopedResource();  // releases
    EXPECT_TRUE(r.available());
    co_await s.delay(1);
  }(sim, lock));
  sim.run();
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    Resource lock(sim, "lock");
    std::vector<SimTime> log;
    Xoshiro256 rng(1234);
    for (int i = 0; i < 32; ++i) {
      sim.spawn(hold_lock(sim, lock, rng.next_in(1, 50), log));
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

namespace {

// Runs three same-timestamp tasks under `policy` and returns their execution
// order. Recording happens at the task's very first event, so the returned
// order is exactly the policy's tie-break of three simultaneous events.
std::vector<int> tie_order(SchedulePolicy policy, std::uint64_t seed) {
  Simulation sim;
  sim.set_schedule_policy(policy, seed);
  std::vector<int> order;
  auto make = [&](int id) -> Task<void> {
    order.push_back(id);
    co_return;
  };
  for (int id = 1; id <= 3; ++id) {
    sim.spawn(make(id));
  }
  sim.run();
  return order;
}

}  // namespace

TEST(SchedulePolicyTest, FifoMatchesSpawnOrder) {
  EXPECT_EQ(tie_order(SchedulePolicy::kFifo, 0), (std::vector<int>{1, 2, 3}));
}

TEST(SchedulePolicyTest, LifoReversesSpawnOrder) {
  EXPECT_EQ(tie_order(SchedulePolicy::kLifo, 0), (std::vector<int>{3, 2, 1}));
}

TEST(SchedulePolicyTest, RandomIsDeterministicPerSeedAndExploresOrders) {
  // Identical (policy, seed) replays identically.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(tie_order(SchedulePolicy::kRandom, seed),
              tie_order(SchedulePolicy::kRandom, seed));
  }
  // Some seed must produce a non-FIFO order; with 3! = 6 orderings and 32
  // seeds the chance of all-FIFO under a working hash is negligible.
  bool explored = false;
  for (std::uint64_t seed = 1; seed <= 32 && !explored; ++seed) {
    explored = tie_order(SchedulePolicy::kRandom, seed) != (std::vector<int>{1, 2, 3});
  }
  EXPECT_TRUE(explored);
}

TEST(SchedulePolicyTest, TimeOrderAlwaysRespected) {
  // Tie-breaking never reorders events across distinct timestamps.
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFifo, SchedulePolicy::kRandom, SchedulePolicy::kLifo}) {
    Simulation sim;
    sim.set_schedule_policy(policy, 5);
    std::vector<SimTime> log;
    sim.spawn(delay_then_record(sim, 300, log));
    sim.spawn(delay_then_record(sim, 100, log));
    sim.spawn(delay_then_record(sim, 200, log));
    sim.run();
    EXPECT_EQ(log, (std::vector<SimTime>{100, 200, 300}));
  }
}

TEST(BlockedReportTest, NamesPendingTasksAndTheirQueues) {
  Simulation sim;
  Resource lock_a(sim, "lock_a");
  Resource lock_b(sim, "lock_b");
  // Classic AB-BA deadlock, with a third task queued behind it.
  sim.spawn([](Simulation& s, Resource& a, Resource& b) -> Task<void> {
    ScopedResource ga = co_await a.scoped();
    co_await s.delay(10);
    ScopedResource gb = co_await b.scoped();
  }(sim, lock_a, lock_b), "forward");
  sim.spawn([](Simulation& s, Resource& a, Resource& b) -> Task<void> {
    ScopedResource gb = co_await b.scoped();
    co_await s.delay(10);
    ScopedResource ga = co_await a.scoped();
  }(sim, lock_a, lock_b), "backward");
  sim.spawn([](Simulation& s, Resource& a) -> Task<void> {
    co_await s.delay(20);
    ScopedResource ga = co_await a.scoped();
  }(sim, lock_a), "bystander");
  sim.run();
  EXPECT_FALSE(sim.all_tasks_done());
  EXPECT_EQ(sim.pending_task_count(), 3u);
  const std::string report = sim.blocked_report();
  EXPECT_NE(report.find("forward"), std::string::npos);
  EXPECT_NE(report.find("backward"), std::string::npos);
  EXPECT_NE(report.find("bystander"), std::string::npos);
  EXPECT_NE(report.find("lock_a"), std::string::npos);
  EXPECT_NE(report.find("lock_b"), std::string::npos);
  // The deadlocked frames hold guards on lock_a/lock_b; destroy them while
  // both locks are still in scope.
  sim.abandon_pending();
}

TEST(BlockedReportTest, EmptyWhenEverythingCompleted) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delay_then_record(sim, 10, log), "fine");
  sim.run();
  EXPECT_TRUE(sim.all_tasks_done());
  EXPECT_TRUE(sim.blocked_report().empty());
}

std::vector<std::string> registry_names(const Simulation& sim) {
  std::vector<std::string> names;
  for (const Resource* resource : sim.resources()) {
    names.push_back(resource->name());
  }
  return names;
}

// Unregistration tombstones a slot and compaction is deferred; every read
// must still see exactly the live resources, in registration order, across
// compactions and registrations that land after them.
TEST(ResourceRegistryTest, KeepsRegistrationOrderAcrossChurn) {
  Simulation sim;
  std::vector<std::unique_ptr<Resource>> locks;
  for (int i = 0; i < 8; ++i) {
    locks.push_back(std::make_unique<Resource>(sim, "r" + std::to_string(i)));
  }
  locks[1].reset();  // 1 of 8 dead: tombstoned, not yet compacted
  locks[6].reset();
  EXPECT_EQ(registry_names(sim),
            (std::vector<std::string>{"r0", "r2", "r3", "r4", "r5", "r7"}));
  locks.push_back(std::make_unique<Resource>(sim, "r8"));
  locks[0].reset();
  locks[4].reset();
  locks[7].reset();
  locks[3].reset();  // more than half dead: compacts in unregister
  EXPECT_EQ(registry_names(sim), (std::vector<std::string>{"r2", "r5", "r8"}));
  locks.push_back(std::make_unique<Resource>(sim, "r9"));
  locks[5].reset();
  EXPECT_EQ(registry_names(sim), (std::vector<std::string>{"r2", "r8", "r9"}));
  locks.clear();
  EXPECT_TRUE(sim.resources().empty());
}

// blocked_report reads the compacted registry: a resource destroyed before
// the deadlock is neither named nor dereferenced.
TEST(ResourceRegistryTest, BlockedReportSkipsDestroyedResources) {
  Simulation sim;
  auto gone = std::make_unique<Resource>(sim, "gone");
  Resource held(sim, "held");
  gone.reset();
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    ScopedResource guard = co_await r.scoped();
    co_await s.delay(1);
    ScopedResource again = co_await r.scoped();  // self-deadlock
  }(sim, held), "self");
  sim.run();
  const std::string report = sim.blocked_report();
  EXPECT_NE(report.find("\"self\" waiting on \"held\""), std::string::npos) << report;
  EXPECT_EQ(report.find("gone"), std::string::npos) << report;
  sim.abandon_pending();
}

// A capacity-1 lock whose queue stays non-empty for 149 handoffs: the
// waiter FIFO compacts mid-queue (its head passes half the vector once
// arrivals stop) and must still resume waiters in arrival order.
TEST(ResourceFifoTest, LongLivedQueueCompactsAndStaysFifo) {
  Simulation sim;
  Resource lock(sim, "lock");
  constexpr int kTasks = 150;
  std::vector<int> order;
  std::vector<SimTime> queued_at_100_handoffs;
  for (int i = 0; i < kTasks; ++i) {
    // Task i arrives at t=i and holds for 1000 ns: everyone after task 0
    // queues, and the queue only drains with the last handoff.
    sim.spawn([](Simulation& s, Resource& r, int id, std::vector<int>& out) -> Task<void> {
      co_await s.delay(static_cast<SimTime>(id));
      ScopedResource guard = co_await r.scoped();
      out.push_back(id);
      co_await s.delay(1000);
    }(sim, lock, i, order));
  }
  sim.spawn([](Simulation& s, Resource& r, std::vector<SimTime>& out) -> Task<void> {
    co_await s.delay(100 * 1000 + 500);
    for (const Resource::Waiter& waiter : r.waiters()) {
      out.push_back(waiter.enqueued);
    }
  }(sim, lock, queued_at_100_handoffs));
  sim.run();

  std::vector<int> expected(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    expected[static_cast<std::size_t>(i)] = i;
  }
  EXPECT_EQ(order, expected);
  // After 100 handoffs tasks 101..149 are queued, oldest first; waiter i
  // joined at t=i.
  std::vector<SimTime> still_queued;
  for (SimTime t = 101; t < static_cast<SimTime>(kTasks); ++t) {
    still_queued.push_back(t);
  }
  EXPECT_EQ(queued_at_100_handoffs, still_queued);
  EXPECT_EQ(lock.peak_queue_depth(), static_cast<std::size_t>(kTasks - 1));
  EXPECT_EQ(lock.queue_depth(), 0u);
  // Task i waits from t=i to t=1000*i.
  SimTime wait = 0;
  for (SimTime i = 1; i < static_cast<SimTime>(kTasks); ++i) {
    wait += 1000 * i - i;
  }
  EXPECT_EQ(lock.total_wait_ns(), wait);
  EXPECT_EQ(lock.total_hold_ns(), 1000u * kTasks);
}

// On a pool, each release is matched to the oldest outstanding acquisition.
TEST(ResourceFifoTest, PoolHoldTimesAreFifoMatched) {
  Simulation sim;
  Resource pool(sim, "pool", 3);
  struct Job {
    SimTime arrive;
    SimTime hold;
  };
  // Acquisitions at 0,0,0 (jobs 0-2), 10 (job 3, handed job 1's unit) and
  // 30 (job 4, handed job 2's or job 3's unit). Releases at 10, 30, 30, 50,
  // 70 match the starts in FIFO order: 10-0, 30-0, 30-0, 50-10, 70-30.
  const std::vector<Job> jobs = {{0, 50}, {0, 10}, {0, 30}, {5, 20}, {5, 40}};
  for (const Job& job : jobs) {
    sim.spawn([](Simulation& s, Resource& r, Job j) -> Task<void> {
      co_await s.delay(j.arrive);
      ScopedResource guard = co_await r.scoped();
      co_await s.delay(j.hold);
    }(sim, pool, job));
  }
  sim.run();
  EXPECT_EQ(pool.total_hold_ns(), 10u + 30u + 30u + 40u + 40u);
  EXPECT_EQ(pool.hold_histogram().count(), 5u);
  // Job 0 really held for 50 ns, but FIFO matching never pairs a release
  // with a span that long.
  EXPECT_EQ(pool.hold_histogram().max(), 40u);
  EXPECT_EQ(pool.total_wait_ns(), (10u - 5u) + (30u - 5u));
}

// Three waiters deadlock on a lock whose queue compacted once before: the
// report must still list their ages oldest first.
TEST(ResourceFifoTest, BlockedReportListsAgesOldestFirstAfterCompaction) {
  Simulation sim;
  Resource lock(sim, "L");
  // Task i arrives at t=i. Task 0 holds until 100, tasks 1 and 2 for 10 ns
  // each; the third pop (task 3 at t=120) passes half of the five queued
  // entries and compacts. Task 3 then re-acquires the lock it holds at t=130,
  // queueing behind tasks 4 and 5.
  for (int i = 0; i < 6; ++i) {
    sim.spawn([](Simulation& s, Resource& r, int id) -> Task<void> {
      co_await s.delay(static_cast<SimTime>(id));
      ScopedResource guard = co_await r.scoped();
      co_await s.delay(id == 0 ? 100 : 10);
      if (id == 3) {
        ScopedResource again = co_await r.scoped();  // self-deadlock
      }
    }(sim, lock, i), "t" + std::to_string(i));
  }
  sim.run();
  EXPECT_EQ(sim.now(), 130u);
  EXPECT_EQ(lock.queue_depth(), 3u);
  const std::string report = sim.blocked_report();
  EXPECT_NE(report.find("resource \"L\": capacity 1, 3 queued, ages ns [126, 125, 0]\n"),
            std::string::npos)
      << report;
  sim.abandon_pending();
}

// Shadow paging creates one Resource per touched gfn and shadow page (pvm
// (NST) holds ~17,000 per perfbench pagefault repetition), so these sizes
// set most of that workload's peak_rss_mb: at 1352 B per Resource it read
// ~62 MiB, at 296 B ~26 MiB. Raise the bounds only on purpose.
TEST(ResourceFootprintTest, ResourceAndHistogramStaySmall) {
  EXPECT_LE(sizeof(Resource), 320u);
  EXPECT_LE(sizeof(LatencyHistogram), 64u);
}

TEST(RandomTest, ReproducibleStreams) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(RandomTest, BoundsRespected) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_in(10, 20);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 20u);
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace pvm
