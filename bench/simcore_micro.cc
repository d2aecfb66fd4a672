// google-benchmark microbenchmarks of the simulation substrate itself —
// wall-clock performance of the pieces every experiment leans on (page
// walks, TLB, DES scheduling, fault protocols). Not a paper figure; used to
// keep the harness fast enough for the full sweeps.

#include <benchmark/benchmark.h>

#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/arch/page_table.h"
#include "src/arch/tlb.h"
#include "src/backends/platform.h"
#include "src/mmu/two_dim_walk.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/sim/random.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

void BM_PageTableMap(benchmark::State& state) {
  PageTable table("bench", nullptr);
  std::uint64_t va = 0;
  for (auto _ : state) {
    table.map(va, va >> kPageShift, PteFlags::rw_user());
    va += kPageSize;
  }
}
BENCHMARK(BM_PageTableMap);

void BM_PageTableWalkHit(benchmark::State& state) {
  PageTable table("bench", nullptr);
  for (std::uint64_t va = 0; va < 1024 * kPageSize; va += kPageSize) {
    table.map(va, va >> kPageShift, PteFlags::rw_user());
  }
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const std::uint64_t va = rng.next_below(1024) * kPageSize;
    benchmark::DoNotOptimize(table.walk(va, AccessType::kRead, true));
  }
}
BENCHMARK(BM_PageTableWalkHit);

void BM_TwoDimWalk(benchmark::State& state) {
  FrameAllocator frames("bench", 1u << 20);
  PageTable gpt("gpt", &frames);
  PageTable ept("ept", nullptr);
  for (std::uint64_t va = 0; va < 256 * kPageSize; va += kPageSize) {
    const std::uint64_t frame = frames.allocate_or_throw();
    gpt.map(va, frame, PteFlags::rw_user());
    ept.map(frame << kPageShift, frame + 1000, PteFlags::rw_kernel());
  }
  const WalkResult walk = gpt.walk(0, AccessType::kRead, true);
  for (int i = 0; i < walk.levels_walked; ++i) {
    ept.map(walk.node_frames[i] << kPageShift, walk.node_frames[i] + 1000,
            PteFlags::rw_kernel());
  }
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const std::uint64_t va = rng.next_below(256) * kPageSize;
    benchmark::DoNotOptimize(walk_two_dimensional(gpt, ept, va, AccessType::kRead, true));
  }
}
BENCHMARK(BM_TwoDimWalk);

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb;
  for (std::uint64_t vpn = 0; vpn < 1024; ++vpn) {
    tlb.insert(1, 1, vpn, Pte::make(vpn, PteFlags::rw_user()));
  }
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, 1, rng.next_below(1024)));
  }
}
BENCHMARK(BM_TlbLookupHit);

// Raw event-queue cost, isolated from coroutine resumption: the simulator's
// steady-state pattern (N live events; pop the minimum, advance the clock,
// push a successor at now + delta). This is where the calendar-queue overhaul
// shows up undiluted — BM_SimulationEventThroughput wraps the same operations
// in coroutine frame switches that dominate its per-event budget.
// BM_EventQueueBinaryHeap is the pre-overhaul std::priority_queue compiled
// into the same binary, so one run yields a like-for-like ratio.

struct HeapOrderedEvent {
  std::uint64_t when, tie, seq;
  std::int64_t root;
  std::coroutine_handle<> handle;
  bool operator>(const HeapOrderedEvent& other) const {
    if (when != other.when) return when > other.when;
    if (tie != other.tie) return tie > other.tie;
    return seq > other.seq;
  }
};

void BM_EventQueueBinaryHeap(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  const std::uint64_t delta = static_cast<std::uint64_t>(state.range(1));
  std::priority_queue<HeapOrderedEvent, std::vector<HeapOrderedEvent>,
                      std::greater<HeapOrderedEvent>>
      queue;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < live; ++i) {
    queue.push({now + delta, seq, seq, -1, {}});
    ++seq;
  }
  for (auto _ : state) {
    const HeapOrderedEvent event = queue.top();
    queue.pop();
    now = event.when;
    queue.push({now + delta, seq, seq, -1, {}});
    ++seq;
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueBinaryHeap)
    ->ArgNames({"live", "delta"})
    ->Args({8, 10})
    ->Args({1024, 1000})
    ->Args({16384, 50})
    ->Args({1024, 0});

void BM_EventQueueCalendar(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  const std::uint64_t delta = static_cast<std::uint64_t>(state.range(1));
  CalendarQueue queue;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < live; ++i) {
    queue.push(SimEvent{now + delta, seq, seq, -1, {}});
    ++seq;
  }
  for (auto _ : state) {
    const SimEvent event = queue.pop();
    now = event.when;
    queue.push(SimEvent{now + delta, seq, seq, -1, {}});
    ++seq;
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCalendar)
    ->ArgNames({"live", "delta"})
    ->Args({8, 10})
    ->Args({1024, 1000})
    ->Args({16384, 50})
    ->Args({1024, 0});

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int t = 0; t < 8; ++t) {
      sim.spawn([](Simulation& s) -> Task<void> {
        for (int i = 0; i < 1000; ++i) {
          co_await s.delay(10);
        }
      }(sim));
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 8000);
}
BENCHMARK(BM_SimulationEventThroughput);

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Resource lock(sim, "lock");
    for (int t = 0; t < 16; ++t) {
      sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
        for (int i = 0; i < 200; ++i) {
          ScopedResource guard = co_await r.scoped();
          co_await s.delay(5);
        }
      }(sim, lock));
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 3200);
}
BENCHMARK(BM_ResourceContention);

void BM_FullFaultProtocolPvmNst(benchmark::State& state) {
  // static: google-benchmark may invoke the function several times while
  // calibrating the iteration count, and the export should hold exactly one
  // platform capture for this label.
  static bool captured = false;
  for (auto _ : state) {
    state.PauseTiming();
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    VirtualPlatform platform(config);
    bench_io().arm_faults(platform);
    bench_io().observe(platform);
    SecureContainer& c = platform.create_container("c0");
    platform.sim().spawn(c.boot(8));
    platform.sim().run();
    GuestProcess& proc = *c.init_process();
    proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 64ull << 20, true};
    state.ResumeTiming();

    platform.sim().spawn([](SecureContainer& cc, GuestProcess& p) -> Task<void> {
      for (std::uint64_t i = 0; i < 512; ++i) {
        co_await cc.kernel().touch(cc.vcpu(0), p, GuestProcess::kHeapBase + i * kPageSize,
                                   true);
      }
    }(c, proc));
    platform.sim().run();

    if (!captured && bench_io().active()) {
      // One platform-backed capture per benchmark (outside the timed
      // region), so --report and the export's counter/contention sections
      // work here like in the table/figure binaries.
      state.PauseTiming();
      // Distinct label from the timing row google-benchmark reports: two
      // runs sharing one label would make label-keyed diffs (benchdiff)
      // ambiguous about which run carries which metrics.
      bench_io().record_run("BM_FullFaultProtocolPvmNst_platform", platform,
                            {{"pages_touched", 512.0}});
      captured = true;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FullFaultProtocolPvmNst);

// The same protocol with a span recorder attached and enabled: the cost
// ceiling of running with full observability on. Compare against
// BM_FullFaultProtocolPvmNst to measure the recorder's overhead; the
// no-recorder run is the hot path every experiment uses and must not regress.
void BM_FullFaultProtocolPvmNstObserved(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    VirtualPlatform platform(config);
    bench_io().arm_faults(platform);
    obs::SpanRecorder recorder;
    recorder.set_enabled(true);
    platform.sim().set_spans(&recorder);
    SecureContainer& c = platform.create_container("c0");
    platform.sim().spawn(c.boot(8));
    platform.sim().run();
    GuestProcess& proc = *c.init_process();
    proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 64ull << 20, true};
    state.ResumeTiming();

    platform.sim().spawn([](SecureContainer& cc, GuestProcess& p) -> Task<void> {
      for (std::uint64_t i = 0; i < 512; ++i) {
        co_await cc.kernel().touch(cc.vcpu(0), p, GuestProcess::kHeapBase + i * kPageSize,
                                   true);
      }
    }(c, proc));
    platform.sim().run();
    benchmark::DoNotOptimize(recorder.spans().size());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FullFaultProtocolPvmNstObserved);

// Registry churn as a lazily-locking engine's teardown does it: 16k
// Resources created in order, then destroyed in hash-map order.
void BM_ResourceChurn(benchmark::State& state) {
  constexpr std::uint64_t kResources = 16384;
  for (auto _ : state) {
    Simulation sim;
    std::unordered_map<std::uint64_t, std::unique_ptr<Resource>> locks;
    for (std::uint64_t gfn = 0; gfn < kResources; ++gfn) {
      locks.emplace(gfn * 0x9e37, std::make_unique<Resource>(sim, "gfn_lock"));
    }
    locks.clear();
    benchmark::DoNotOptimize(sim.resources().size());
  }
  state.SetItemsProcessed(state.iterations() * kResources);
}
BENCHMARK(BM_ResourceChurn);

// The critical-path fold over one fixed recorder: a 16-process pvm (NST)
// memstress fault run with spans on, recorded once outside the timing.
const obs::SpanRecorder& fault_run_recorder() {
  static const std::unique_ptr<obs::SpanRecorder> recorder = [] {
    auto rec = std::make_unique<obs::SpanRecorder>();
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    VirtualPlatform platform(config);
    rec->set_enabled(true);
    platform.sim().set_spans(rec.get());
    SecureContainer& c = platform.create_container("c0");
    platform.sim().spawn(c.boot(16));
    platform.sim().run();
    MemStressParams params;
    params.total_bytes = 2ull << 20;
    run_processes_in_container(platform, c, /*process_count=*/16,
                               [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                                 return memstress_process(c, vcpu, proc, params);
                               });
    platform.sim().set_spans(nullptr);
    rec->set_enabled(false);
    return rec;
  }();
  return *recorder;
}

void BM_ProfFold(benchmark::State& state) {
  const obs::SpanRecorder& recorder = fault_run_recorder();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prof::fold_profile(recorder));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(recorder.spans().size()));
}
BENCHMARK(BM_ProfFold);

// Console reporter that also feeds each benchmark's wall-clock numbers into
// the shared BenchExport, so `--json` emits the same pvm.bench.v1 schema as
// every table/figure binary (benchdiff and pvm-stat consume it uniformly).
class ExportingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      // GetAdjusted*Time() are in the benchmark's own time unit.
      const double to_ns = 1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      std::vector<std::pair<std::string, double>> values = {
          {"real_time_ns", run.GetAdjustedRealTime() * to_ns},
          {"cpu_time_ns", run.GetAdjustedCPUTime() * to_ns},
      };
      for (const auto& [name, counter] : run.counters) {
        values.emplace_back(name, counter.value);
      }
      bench_io().record_values(run.benchmark_name(), std::move(values));
    }
  }
};

}  // namespace
}  // namespace pvm

// Custom main instead of BENCHMARK_MAIN(): the repo-wide BenchIo flags
// (--json / --trace / --report / --faults) are parsed and stripped before
// google-benchmark sees the command line, so simcore_micro takes the same
// flags as every other bench binary.
int main(int argc, char** argv) {
  pvm::BenchIo io(argc, argv, "simcore_micro");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--trace" || arg == "--faults") {
      ++i;  // skip the flag's value too
      continue;
    }
    if (arg == "--report" || arg == "--alloc-stats") {
      continue;
    }
    args.push_back(argv[i]);
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  pvm::ExportingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  io.finish();
  benchmark::Shutdown();
  return 0;
}
