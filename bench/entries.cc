#include "bench/entries.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "src/backends/ept_on_ept_memory_backend.h"
#include "src/backends/kvm_spt_memory_backend.h"
#include "src/backends/platform.h"
#include "src/backends/pvm_memory_backend.h"
#include "src/backends/spt_on_ept_memory_backend.h"
#include "src/core/switcher.h"
#include "src/hv/host_hypervisor.h"
#include "src/hv/migration.h"
#include "src/metrics/histogram.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/obs_report.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm::bench {

// ---- Observer ----

Observer::Observer(std::string bench_name, ObserverOptions options)
    : options_(std::move(options)), export_(std::move(bench_name)) {}

Observer::~Observer() = default;

Observer::Watch& Observer::watch(Simulation& sim) {
  // A new simulation may reuse a destroyed one's address: start afresh.
  Watch& entry = watched_[&sim] = Watch{};
  if (options_.export_spans || options_.profile) {
    recorders_.push_back(std::make_unique<obs::SpanRecorder>());
    entry.recorder = recorders_.back().get();
    entry.recorder->set_enabled(true);
    sim.set_spans(entry.recorder);
  }
  if (options_.timeseries) {
    if (options_.timeseries_per_run || collectors_.empty()) {
      collectors_.push_back(std::make_unique<ts::Collector>());
      if (options_.ts_window_ns != 0) {
        collectors_.back()->set_window(options_.ts_window_ns);
      }
    }
    if (options_.timeseries_per_run) {
      entry.collector = collectors_.back().get();
    }
    sim.set_ts(collectors_.back().get());
  }
  return entry;
}

void Observer::attach(Simulation& sim) {
  if (options_.record) {
    watch(sim);
  }
}

void Observer::attach(VirtualPlatform& platform) {
  // Ring capacity reshapes the always-on recorder, whether or not runs are
  // recorded.
  if (options_.flight_capacity != 0) {
    platform.flight().set_capacity(options_.flight_capacity);
  }
  arm_faults(platform);
  if (options_.record) {
    watch(platform.sim()).platform = &platform;
  }
}

void Observer::arm_faults(VirtualPlatform& platform) {
  if (options_.fault_plan.empty() || options_.fault_plan == "none") {
    return;
  }
  injectors_.push_back(std::make_unique<fault::FaultInjector>());
  injectors_.back()->arm(fault::FaultPlan::parse(options_.fault_plan));
  platform.arm_faults(injectors_.back().get());
}

void Observer::record(const std::string& label, Simulation& sim, CounterSet& counters,
                      Values values) {
  if (!options_.record) {
    return;
  }
  events_ += sim.events_processed();
  const auto it = watched_.find(&sim);
  Watch* entry = it == watched_.end() ? nullptr : &it->second;
  obs::SpanRecorder* recorder = entry != nullptr ? entry->recorder : nullptr;
  std::string alloc_json;
  if (options_.alloc_stats) {
    // Engine slabs are only reachable through the platform, if there is one.
    SlabStats engines;
    const bool on_platform = entry != nullptr && entry->platform != nullptr;
    if (on_platform) {
      engines = entry->platform->engine_alloc_stats();
    }
    alloc_json = obs::render_alloc_json(sim.event_queue_stats(), on_platform ? &engines : nullptr);
  }
  export_.add_run(label, sim, counters, options_.export_spans ? recorder : nullptr,
                  std::move(values), std::move(alloc_json));
  if (entry != nullptr && entry->collector != nullptr) {
    // Fold this run's metrics into the document, leaving the collector empty
    // for the simulation's next run.
    std::string merge_error;
    if (!ts::merge_timeseries(
            &ts_doc_, ts::prefix_timeseries(entry->collector->drain(), label + "/"),
            &merge_error)) {
      std::fprintf(stderr, "[bench] timeseries merge failed: %s\n", merge_error.c_str());
    }
  }
  if (options_.profile && recorder != nullptr) {
    prof::ProfDoc run_doc = prof::fold_profile(*recorder, entry->folded_spans);
    run_doc.dropped_spans = recorder->dropped_spans() - entry->folded_dropped;
    entry->folded_spans = recorder->spans().size();
    entry->folded_dropped = recorder->dropped_spans();
    prof::merge_profile(&prof_doc_, prof::prefix_profile(run_doc, label + "/"), nullptr);
  }
  if (options_.trace && recorder != nullptr) {
    // The flight overlay marks injected faults / watchdog / OOM events.
    trace_json_ = export_chrome_trace(*recorder, sim, sim.flight());
  }
  if (options_.report) {
    std::printf("--- pvm-report: %s ---\n%s\n", label.c_str(),
                obs::render_obs_report(sim, recorder).c_str());
  }
}

void Observer::record(const std::string& label, VirtualPlatform& platform, Values values) {
  record(label, platform.sim(), platform.counters(), std::move(values));
}

ts::TsDoc& Observer::timeseries() {
  if (!options_.timeseries_per_run && !collectors_.empty()) {
    ts::merge_timeseries(&ts_doc_, collectors_.front()->drain(), nullptr);
  }
  return ts_doc_;
}

void Observer::record_values(const std::string& label, Values values) {
  if (options_.record) {
    export_.add_values(label, std::move(values));
  }
}

// ---- Entries ----

namespace {

constexpr int kSwitchIterations = 10000;
constexpr int kPrivOpIterations = 2000;

// RunD-style sandbox startup deadline, scaled to this harness's boot times
// (uncontended boots take ~0.5 ms of virtual time; the real RunD budget is
// sub-second against ~100 ms real startups — the same ~20x headroom).
constexpr SimTime kBootTimeout = 10 * kNsPerMs;

inline double to_us(SimTime ns) { return static_cast<double>(ns) / 1e3; }
inline double to_seconds(SimTime ns) { return static_cast<double>(ns) / 1e9; }

// Container "c0" on `platform`, booted with `pages` resident pages.
SecureContainer& boot_container(VirtualPlatform& platform, int pages) {
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(pages));
  platform.sim().run();
  return container;
}

ConcurrentResult run_memstress(VirtualPlatform& platform, SecureContainer& container,
                               int processes, const MemStressParams& params) {
  return run_processes_in_container(platform, container, processes,
                                    [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                                      return memstress_process(container, vcpu, proc, params);
                                    });
}

void attach_raw(Simulation& sim, const PlatformConfig& config, Observer& observer) {
  sim.set_schedule_policy(config.schedule_policy, config.schedule_seed);
  observer.attach(sim);
}

}  // namespace

double switch_single_level_us(const PlatformConfig& config, Observer& observer) {
  Simulation sim;
  attach_raw(sim, config, observer);
  CostModel costs;
  CounterSet counters;
  TraceLog trace;
  HostHypervisor l0(sim, costs, counters, trace, 1u << 20);
  HostHypervisor::Vm& vm = l0.create_vm("vm", 1u << 16, false);

  const SimTime start = sim.now();
  sim.spawn([](HostHypervisor& hv, HostHypervisor::Vm& v) -> Task<void> {
    for (int i = 0; i < kSwitchIterations; ++i) {
      co_await hv.exit_roundtrip(v, ExitKind::kHypercall);
    }
  }(l0, vm));
  sim.run();
  // A round trip is two world switches (exit + entry).
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  observer.record("single_level", sim, counters, {{"us_per_switch", us}});
  return us;
}

double switch_pvm_us(const PlatformConfig& config, Observer& observer) {
  Simulation sim;
  attach_raw(sim, config, observer);
  CostModel costs;
  CounterSet counters;
  TraceLog trace;
  Switcher switcher(sim, costs, counters, trace);

  const SimTime start = sim.now();
  sim.spawn([](Switcher& s) -> Task<void> {
    SwitcherState state;
    VcpuState vcpu;
    for (int i = 0; i < kSwitchIterations; ++i) {
      co_await s.to_hypervisor(state, vcpu, SwitchReason::kHypercall);
      co_await s.enter_guest(state, vcpu, VirtRing::kVRing3);
    }
  }(switcher));
  sim.run();
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  observer.record("pvm_switcher", sim, counters, {{"us_per_switch", us}});
  return us;
}

double switch_nested_us(const PlatformConfig& config, Observer& observer) {
  Simulation sim;
  attach_raw(sim, config, observer);
  CostModel costs;
  CounterSet counters;
  TraceLog trace;
  HostHypervisor l0(sim, costs, counters, trace, 1u << 20);
  HostHypervisor::Vm& l1 = l0.create_vm("l1", 1u << 16, true);

  const SimTime start = sim.now();
  sim.spawn([](HostHypervisor& hv, HostHypervisor::Vm& vm) -> Task<void> {
    HostHypervisor::NestedVcpu vcpu;
    for (int i = 0; i < kSwitchIterations; ++i) {
      // One L2-to-L1 transition (forward) + one L1-to-L2 (emulated resume).
      co_await hv.nested_forward_exit_to_l1(vm, vcpu, ExitKind::kHypercall);
      co_await hv.nested_resume_l2(vm, vcpu);
    }
  }(l0, l1));
  sim.run();
  const double us = to_us(sim.now() - start) / (2.0 * kSwitchIterations);
  observer.record("nested_l2_l1", sim, counters, {{"us_per_switch", us}});
  return us;
}

double priv_op_roundtrip_us(const std::string& label, const PlatformConfig& config, PrivOp op,
                            Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& c = boot_container(platform, 8);

  const SimTime start = platform.sim().now();
  platform.sim().spawn([](SecureContainer& cc, PrivOp o) -> Task<void> {
    for (int i = 0; i < kPrivOpIterations; ++i) {
      if (o == PrivOp::kException) {
        co_await cc.cpu().exception_roundtrip(cc.vcpu(0));
      } else {
        co_await cc.cpu().privileged_op(cc.vcpu(0), o);
      }
    }
  }(c, op));
  platform.sim().run();
  const double us = to_us(platform.sim().now() - start) / kPrivOpIterations;
  observer.record(label, platform, {{"roundtrip_us", us}});
  return us;
}

std::uint64_t lmbench_latency_ns(const std::string& label, const PlatformConfig& config,
                                 LmbenchOp op, int iterations, int boot_pages,
                                 const std::string& value_key, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& c = boot_container(platform, boot_pages);
  std::uint64_t latency = 0;
  platform.sim().spawn([](SecureContainer& cc, LmbenchOp o, int iters,
                          std::uint64_t* out) -> Task<void> {
    *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), o, iters, LmbenchParams{});
  }(c, op, iterations, &latency));
  platform.sim().run();
  observer.record(label, platform, {{value_key, to_us(latency)}});
  return latency;
}

double syscall_getpid_us(const std::string& label, const PlatformConfig& config,
                         Observer& observer) {
  return to_us(lmbench_latency_ns(label, config, LmbenchOp::kGetPid, 4000, /*boot_pages=*/8,
                                  "getpid_us", observer));
}

double lmbench_concurrent_us(const std::string& label, const PlatformConfig& config,
                             LmbenchOp op, int processes, int iterations, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& container = boot_container(platform, 16);

  std::vector<std::uint64_t> latencies(processes, 0);
  run_processes_in_container(
      platform, container, processes,
      [&](int index, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return [](SecureContainer& c, Vcpu& v, GuestProcess& p, LmbenchOp o, int iters,
                  std::uint64_t* out) -> Task<void> {
          LmbenchParams params;
          *out = co_await lmbench_run(c, v, p, o, iters, params);
        }(container, vcpu, proc, op, iterations, &latencies[index]);
      },
      /*resident_pages=*/256);
  double sum = 0;
  for (const std::uint64_t latency : latencies) {
    sum += static_cast<double>(latency);
  }
  const double us = sum / static_cast<double>(processes) / 1e3;
  observer.record(label, platform, {{"latency_us", us}});
  return us;
}

LmbenchTail lmbench_tail_us(const std::string& label, const PlatformConfig& config,
                            LmbenchOp op, int iterations, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& c = boot_container(platform, 64);
  std::uint64_t latency = 0;
  LatencyHistogram histogram;
  platform.sim().spawn([](SecureContainer& cc, LmbenchOp o, int iters, std::uint64_t* out,
                          LatencyHistogram* hist) -> Task<void> {
    *out = co_await lmbench_run(cc, cc.vcpu(0), *cc.init_process(), o, iters, LmbenchParams{},
                                hist);
  }(c, op, iterations, &latency, &histogram));
  platform.sim().run();
  const LmbenchTail result{to_us(latency), to_us(histogram.quantile(0.99))};
  observer.record(label, platform, {{"mean_us", result.mean_us}, {"p99_us", result.p99_us}});
  return result;
}

double memstress_mean_seconds(const std::string& label, const PlatformConfig& config,
                              int processes, std::uint64_t bytes_per_proc, bool release_chunks,
                              Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& container = boot_container(platform, 16);
  MemStressParams params;
  params.total_bytes = bytes_per_proc;
  params.release_chunks = release_chunks;
  const double seconds = run_memstress(platform, container, processes, params).mean_seconds();
  observer.record(label, platform, {{"mean_seconds", seconds}});
  return seconds;
}

DerivedStats protocol_costs(const std::string& label, const PlatformConfig& config,
                            std::uint64_t bytes_per_proc, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& container = boot_container(platform, 16);
  const CounterSet before = platform.counters();
  MemStressParams params;
  params.total_bytes = bytes_per_proc;
  run_memstress(platform, container, /*processes=*/4, params);
  const DerivedStats stats = derive_stats(platform.counters().delta_since(before));
  observer.record(label, platform,
                  {{"switches_per_fault", stats.switches_per_fault},
                   {"l0_exits_per_fault", stats.l0_exits_per_fault},
                   {"tlb_hit_rate", stats.tlb_hit_rate}});
  return stats;
}

PageTableFootprint page_table_footprint(const std::string& label, const PlatformConfig& config,
                                        int processes, std::uint64_t bytes_per_proc,
                                        Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& container = boot_container(platform, 16);
  MemStressParams params;
  params.total_bytes = bytes_per_proc;
  params.release_chunks = false;
  run_memstress(platform, container, processes, params);

  PageTableFootprint footprint;
  for (const auto& proc : container.kernel().processes()) {
    footprint.guest_tables += proc->gpt().node_count();
  }
  if (auto* backend = dynamic_cast<PvmMemoryBackend*>(&container.mem())) {
    footprint.shadow_tables = backend->engine().shadow_table_frames();
  } else if (auto* spt = dynamic_cast<KvmSptMemoryBackend*>(&container.mem())) {
    footprint.shadow_tables = spt->engine().shadow_table_frames();
  } else if (auto* soe = dynamic_cast<SptOnEptMemoryBackend*>(&container.mem())) {
    footprint.shadow_tables = soe->engine().shadow_table_frames();
  } else if (auto* eoe = dynamic_cast<EptOnEptMemoryBackend*>(&container.mem())) {
    // EPT-on-EPT's hypervisor-side tables: EPT12 at L1 and the compressed
    // EPT02 at L0.
    footprint.shadow_tables = eoe->ept12().node_count() + eoe->ept02().node_count();
  }
  observer.record(label, platform,
                  {{"guest_tables", static_cast<double>(footprint.guest_tables)},
                   {"shadow_tables", static_cast<double>(footprint.shadow_tables)}});
  return footprint;
}

double app_mean_seconds(const std::string& label, const PlatformConfig& config,
                        const AppRun& run, const AppBody& body, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  const double seconds =
      run_containers(
          platform, run.containers,
          [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
            return body(c, vcpu, proc);
          },
          run.init_pages, run.timer_hz)
          .mean_seconds();
  observer.record(label, platform, {{"mean_seconds", seconds}});
  return seconds;
}

double app_mean_score(const std::string& label, const PlatformConfig& config, const AppRun& run,
                      const ScoredAppBody& body, const std::string& score_key,
                      Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  std::vector<double> scores(run.containers, 0);
  run_containers(
      platform, run.containers,
      [&](int index, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return [](const ScoredAppBody& b, SecureContainer& cc, Vcpu& v, GuestProcess& p,
                  double* out) -> Task<void> { *out = co_await b(cc, v, p); }(
                   body, c, vcpu, proc, &scores[index]);
      },
      run.init_pages, run.timer_hz);
  double sum = 0;
  for (const double score : scores) {
    sum += score;
  }
  const double score = sum / run.containers;
  observer.record(label, platform, {{score_key, score}});
  return score;
}

HighLoadResult high_load(const std::string& label, const PlatformConfig& config,
                         int containers, double app_size, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  AppParams params;
  params.size = app_size;
  const ContainersResult result = run_containers(
      platform, containers,
      [&](int, SecureContainer& c, Vcpu&, GuestProcess&) -> Task<void> {
        return app_fluidanimate(c, params, /*threads=*/2, /*frames=*/8);
      },
      /*init_pages=*/48);

  HighLoadResult out;
  out.mean_seconds = result.mean_seconds();
  out.failed_boots = result.boots_failed;
  out.crashed = result.boots_failed > 0;  // init never came up: the sandbox is dead
  for (const SimTime boot : result.boot_latencies) {
    out.worst_boot_seconds = std::max(out.worst_boot_seconds, to_seconds(boot));
    if (boot > kBootTimeout) {
      out.crashed = true;  // the runtime would have given up on the sandbox
    }
  }
  std::vector<SimTime> times = result.task_times;
  std::sort(times.begin(), times.end());
  if (!times.empty()) {
    const std::size_t idx = (times.size() * 99) / 100;
    out.p99_seconds = to_seconds(times[std::min(idx, times.size() - 1)]);
  }
  observer.record(label, platform,
                  {{"mean_seconds", out.mean_seconds},
                   {"p99_seconds", out.p99_seconds},
                   {"worst_boot_seconds", out.worst_boot_seconds},
                   {"failed_boots", static_cast<double>(out.failed_boots)},
                   {"crashed", out.crashed ? 1.0 : 0.0}});
  return out;
}

BootStormStats boot_storm(const std::string& label, const PlatformConfig& config,
                          int containers, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  std::vector<SecureContainer*> all;
  for (int i = 0; i < containers; ++i) {
    all.push_back(&platform.create_container("c" + std::to_string(i)));
  }
  for (SecureContainer* container : all) {
    platform.sim().spawn(container->boot(96));
  }
  platform.sim().run();

  std::vector<SimTime> latencies;
  for (SecureContainer* container : all) {
    latencies.push_back(container->boot_latency());
  }
  std::sort(latencies.begin(), latencies.end());
  const auto at = [&](double q) {
    return static_cast<double>(latencies[static_cast<std::size_t>(
               q * static_cast<double>(latencies.size() - 1))]) /
           1e6;
  };
  const BootStormStats stats{at(0.50), at(0.99), at(1.0)};
  observer.record(label, platform,
                  {{"p50_ms", stats.p50_ms}, {"p99_ms", stats.p99_ms},
                   {"worst_ms", stats.worst_ms}});
  return stats;
}

MigrationBenchStats migration_stats(const std::string& label, const PlatformConfig& config,
                                    DirtyProtocol protocol, Observer& observer) {
  VirtualPlatform platform(config);
  observer.attach(platform);
  SecureContainer& c = boot_container(platform, 16);

  // The migratable unit: the shared L1 instance in nested modes, the
  // container's own L0 VM in bare-metal modes. pvm (BM) runs under the PVM
  // hypervisor with no L0 VM at all — nothing for L0 to migrate.
  HostHypervisor::Vm* vm = platform.l1_vm();
  if (vm == nullptr) {
    vm = c.host_vm();
  }
  MigrationBenchStats stats;
  MigrationResult result;
  if (vm != nullptr && !c.boot_failed()) {
    // Keep the guest dirtying while the pre-copy rounds stream, so the
    // tracker protocol earns its keep (and its costs).
    MemStressParams params;
    params.total_bytes = 8ull << 20;
    MigrationEngine engine(platform.l0());
    MigrationParams mparams;
    mparams.protocol = protocol;
    platform.sim().spawn(memstress_process(c, c.vcpu(0), *c.init_process(), params));
    platform.sim().spawn([](MigrationEngine& e, HostHypervisor::Vm& v,
                            const MigrationParams& p, MigrationResult* out) -> Task<void> {
      *out = co_await e.migrate(v, p);
    }(engine, *vm, mparams, &result));
    platform.sim().run();
  }

  stats.succeeded = result.succeeded;
  stats.fell_back_postcopy = result.fell_back_postcopy;
  stats.rounds = static_cast<double>(result.rounds);
  stats.pages_copied = static_cast<double>(result.pages_copied);
  stats.pages_dirtied = static_cast<double>(result.pages_dirtied);
  stats.wp_faults = static_cast<double>(result.wp_faults);
  stats.pml_appends = static_cast<double>(result.pml_appends);
  stats.pml_flushes = static_cast<double>(result.pml_flushes);
  stats.remote_faults = static_cast<double>(result.remote_faults);
  stats.downtime_us = static_cast<double>(result.downtime) / 1e3;
  stats.total_ms = static_cast<double>(result.total_time) / 1e6;
  observer.record(label, platform,
                  {{"succeeded", stats.succeeded ? 1.0 : 0.0},
                   {"fell_back_postcopy", stats.fell_back_postcopy ? 1.0 : 0.0},
                   {"rounds", stats.rounds},
                   {"pages_copied", stats.pages_copied},
                   {"pages_dirtied", stats.pages_dirtied},
                   {"wp_faults", stats.wp_faults},
                   {"pml_appends", stats.pml_appends},
                   {"pml_flushes", stats.pml_flushes},
                   {"remote_faults", stats.remote_faults},
                   {"downtime_us", stats.downtime_us},
                   {"total_ms", stats.total_ms}});
  return stats;
}

// ---- Matrix cells ----

const std::vector<std::string>& matrix_workloads() {
  static const std::vector<std::string> kWorkloads = {"switch", "syscall", "pagefault",
                                                      "boot", "migration"};
  return kWorkloads;
}

sweep::CellResult run_workload_cell(const sweep::MatrixCell& cell, const CellDocs& docs) {
  ObserverOptions options;
  options.record = true;
  options.timeseries = docs.timeseries;
  options.timeseries_per_run = false;
  options.ts_window_ns = docs.ts_window_ns;
  options.profile = docs.profile;
  options.fault_plan = cell.fault_plan;
  Observer observer("pvm-matrix/" + cell.workload, std::move(options));

  PlatformConfig config;
  config.mode = cell.mode;
  config.schedule_policy = cell.policy;
  config.schedule_seed = cell.seed;

  sweep::CellResult result;
  try {
    if (cell.workload == "switch") {
      switch_single_level_us(config, observer);
      switch_pvm_us(config, observer);
      switch_nested_us(config, observer);
    } else if (cell.workload == "syscall") {
      syscall_getpid_us("getpid", config, observer);
    } else if (cell.workload == "pagefault") {
      // Small fixed size: a matrix cell is a smoke-scale sample of the
      // fig10 workload, not a reproduction of its 32 MiB sweep.
      memstress_mean_seconds("pagefault", config, /*processes=*/2,
                             /*bytes_per_proc=*/4ull << 20, /*release_chunks=*/true, observer);
    } else if (cell.workload == "boot") {
      boot_storm("bootstorm", config, /*containers=*/8, observer);
    } else if (cell.workload == "migration") {
      // Both dirty-tracking protocols, so one matrix document carries the
      // WP-vs-PML cost comparison per mode (and benchdiff can gate on it).
      migration_stats("migration_wp", config, DirtyProtocol::kWriteProtect, observer);
      migration_stats("migration_pml", config, DirtyProtocol::kPml, observer);
    } else {
      result.ok = false;
      result.error = "unknown workload '" + cell.workload + "'";
      return result;
    }
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.events = observer.events();
    return result;
  }
  result.events = observer.events();
  result.bench_json = observer.bench().to_json();
  const std::string coordinate =
      std::string(deploy_mode_token(cell.mode)) + "/" + cell.workload + "/";
  if (docs.timeseries) {
    result.ts_json =
        ts::render_timeseries_json(ts::prefix_timeseries(observer.timeseries(), coordinate));
  }
  if (docs.profile) {
    result.profile_json =
        prof::render_profile_json(prof::prefix_profile(observer.profile(), coordinate));
  }
  return result;
}

}  // namespace pvm::bench
