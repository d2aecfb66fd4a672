// Run-as-library bench entry points and the observer they report to.
//
// Every measurement body of the table/figure binaries lives here: each entry
// builds its own Simulation or VirtualPlatform, runs one cell of a paper
// table or figure, and records the run into an explicit bench::Observer
// passed by reference. The binaries fill their observer from the command
// line (BenchIo, bench/bench_common.h) and write its documents to files;
// pvm-matrix fills one per cell from the cell's coordinates and returns the
// documents. Nothing here is process-global, so sweep workers can run cells
// concurrently.

#ifndef PVM_BENCH_ENTRIES_H_
#define PVM_BENCH_ENTRIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/priv_op.h"
#include "src/backends/config.h"
#include "src/fault/fault.h"
#include "src/hv/dirty_tracker.h"
#include "src/metrics/report.h"
#include "src/obs/metrics_json.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/sweep/matrix.h"
#include "src/workloads/apps.h"
#include "src/workloads/lmbench.h"

namespace pvm {

class Simulation;
class VirtualPlatform;
class CounterSet;

namespace bench {

// A run's headline numbers, exported in the given order.
using Values = std::vector<std::pair<std::string, double>>;

// What an Observer watches and keeps. The defaults keep nothing, attach
// nothing and inject nothing: entries then run exactly as with no flags.
struct ObserverOptions {
  // Capture every recorded run into the pvm.bench.v1 export.
  bool record = false;
  // Attach a span recorder to every simulation and embed its spans in the
  // export (the binaries' --json/--trace/--report).
  bool export_spans = false;
  bool report = false;       // print the pvm-report summary of each run
  bool trace = false;        // keep the Chrome trace of the last run
  bool alloc_stats = false;  // add the alloc section to each exported run
  // Collect pvm.timeseries.v1 metrics. Per run: one collector per
  // simulation, each run's metrics named "<label>/<metric>". Otherwise one
  // collector shared by every simulation, metrics unprefixed (pvm-matrix's
  // per-cell document).
  bool timeseries = false;
  bool timeseries_per_run = true;
  std::uint64_t ts_window_ns = 0;  // 0: ts::kDefaultWindowNs
  // Fold every run's span tree into a pvm.profile.v1 document, op keys
  // named "<label>/<op>". Attaches span recorders too.
  bool profile = false;
  std::string fault_plan;             // armed on every platform; "" or "none": off
  std::uint64_t flight_capacity = 0;  // per-track flight rings; 0: default
};

// Watches the simulations an entry builds and records its runs. Attach right
// after constructing a simulation or platform, record once per completed run
// while the simulation is still alive. Options may change only before the
// first attach.
class Observer {
 public:
  Observer(std::string bench_name, ObserverOptions options);
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  ObserverOptions& options() { return options_; }

  void attach(Simulation& sim);
  // Sizes the flight rings, arms the fault plan and attaches the platform's
  // simulation.
  void attach(VirtualPlatform& platform);
  // Arms a fresh injector with the fault plan, so every platform replays the
  // plan from its seed regardless of run order. The injector lives as long
  // as the observer.
  void arm_faults(VirtualPlatform& platform);

  void record(const std::string& label, Simulation& sim, CounterSet& counters, Values values);
  void record(const std::string& label, VirtualPlatform& platform, Values values);
  // A values-only row (derived numbers with no backing simulation).
  void record_values(const std::string& label, Values values);

  const obs::BenchExport& bench() const { return export_; }
  // The timeseries document, including the shared collector's metrics.
  ts::TsDoc& timeseries();
  const prof::ProfDoc& profile() const { return prof_doc_; }
  const std::string& trace_json() const { return trace_json_; }  // last run's
  // Simulation events processed across the recorded runs.
  std::uint64_t events() const { return events_; }

 private:
  struct Watch {
    obs::SpanRecorder* recorder = nullptr;
    ts::Collector* collector = nullptr;
    VirtualPlatform* platform = nullptr;
    // Raw spans and dropped count already folded into the profile, so a
    // simulation recorded twice folds each run's increment once.
    std::size_t folded_spans = 0;
    std::uint64_t folded_dropped = 0;
  };

  Watch& watch(Simulation& sim);

  ObserverOptions options_;
  obs::BenchExport export_;
  ts::TsDoc ts_doc_;
  prof::ProfDoc prof_doc_;
  std::string trace_json_;
  std::uint64_t events_ = 0;
  std::map<const Simulation*, Watch> watched_;
  std::vector<std::unique_ptr<obs::SpanRecorder>> recorders_;
  std::vector<std::unique_ptr<ts::Collector>> collectors_;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors_;
};

// ---- Table 0: world-switch unit costs (us per switch) ----
// Raw-simulation micro measurements: only the config's schedule policy and
// seed apply.
double switch_single_level_us(const PlatformConfig& config, Observer& observer);
double switch_pvm_us(const PlatformConfig& config, Observer& observer);
double switch_nested_us(const PlatformConfig& config, Observer& observer);

// ---- Table 1: privileged-op exit/entry round trip (us) ----
double priv_op_roundtrip_us(const std::string& label, const PlatformConfig& config, PrivOp op,
                            Observer& observer);

// ---- One LMbench op in one booted container (Fig. 2, Tables 2 and 4) ----
// Mean latency in ns, recorded in us under `value_key`.
std::uint64_t lmbench_latency_ns(const std::string& label, const PlatformConfig& config,
                                 LmbenchOp op, int iterations, int boot_pages,
                                 const std::string& value_key, Observer& observer);
// Table 2's get_pid (and the matrix's syscall cell), in us.
double syscall_getpid_us(const std::string& label, const PlatformConfig& config,
                         Observer& observer);

// ---- Table 3: mean LMbench latency (us) over concurrent processes ----
double lmbench_concurrent_us(const std::string& label, const PlatformConfig& config,
                             LmbenchOp op, int processes, int iterations, Observer& observer);

// ---- Table 4b: LMbench mean and P99 latency (us) ----
struct LmbenchTail {
  double mean_us = 0;
  double p99_us = 0;
};
LmbenchTail lmbench_tail_us(const std::string& label, const PlatformConfig& config,
                            LmbenchOp op, int iterations, Observer& observer);

// ---- Memstress in one container (Figs. 4 and 10, the extension ablation) ----
// Mean seconds per process; `release_chunks` is the Fig. 10 allocate-and-
// release variant, off for Fig. 4's allocate-and-keep.
double memstress_mean_seconds(const std::string& label, const PlatformConfig& config,
                              int processes, std::uint64_t bytes_per_proc, bool release_chunks,
                              Observer& observer);

// ---- Table 0b: protocol costs per fault over a 4-process memstress run ----
DerivedStats protocol_costs(const std::string& label, const PlatformConfig& config,
                            std::uint64_t bytes_per_proc, Observer& observer);

// ---- Table 5: page-table pages after an allocate-and-keep memstress run ----
struct PageTableFootprint {
  std::uint64_t guest_tables = 0;   // GPT pages (the guest pays these anyway)
  std::uint64_t shadow_tables = 0;  // SPT/gpa_map pages (hypervisor overhead)
};
PageTableFootprint page_table_footprint(const std::string& label, const PlatformConfig& config,
                                        int processes, std::uint64_t bytes_per_proc,
                                        Observer& observer);

// ---- Applications, one process per container (Figs. 2, 11 and 13) ----
// The app run in each container, on its vCPU 0 and init process. A scored
// app returns its own score (Blogbench ops/s, SPECjbb kbops).
using AppBody = std::function<Task<void>(SecureContainer&, Vcpu&, GuestProcess&)>;
using ScoredAppBody = std::function<Task<double>(SecureContainer&, Vcpu&, GuestProcess&)>;
struct AppRun {
  int containers = 1;
  int init_pages = 96;
  int timer_hz = 0;  // per-container scheduler tick, 0: none
};
// Mean task time in seconds, recorded as "mean_seconds".
double app_mean_seconds(const std::string& label, const PlatformConfig& config,
                        const AppRun& run, const AppBody& body, Observer& observer);
// Mean of the containers' scores, recorded under `score_key`.
double app_mean_score(const std::string& label, const PlatformConfig& config, const AppRun& run,
                      const ScoredAppBody& body, const std::string& score_key,
                      Observer& observer);

// ---- Fig. 12: fluidanimate at container density ----
// A container whose init was OOM-killed, or whose boot overran the RunD-style
// startup deadline, counts as a crash.
struct HighLoadResult {
  double mean_seconds = 0;
  double p99_seconds = 0;
  bool crashed = false;
  int failed_boots = 0;
  double worst_boot_seconds = 0;
};
HighLoadResult high_load(const std::string& label, const PlatformConfig& config,
                         int containers, double app_size, Observer& observer);

// ---- Fig. 12b-style boot storm (startup latency percentiles, ms) ----
struct BootStormStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double worst_ms = 0;
};
BootStormStats boot_storm(const std::string& label, const PlatformConfig& config,
                          int containers, Observer& observer);

// ---- §2.3 live-migration management metrics ----
// Boots one container, then migrates its hosting VM *while* a memstress
// process keeps dirtying pages, so the dirty-tracking protocol (write-protect
// or PML) does real work. Nested hardware modes (kvm-ept, spt-on-ept) refuse
// — succeeded stays 0 with pages_copied 0, the §2.3 pinning claim in numbers.
struct MigrationBenchStats {
  bool succeeded = false;
  bool fell_back_postcopy = false;
  double rounds = 0;
  double pages_copied = 0;
  double pages_dirtied = 0;
  double wp_faults = 0;
  double pml_appends = 0;
  double pml_flushes = 0;
  double remote_faults = 0;
  double downtime_us = 0;
  double total_ms = 0;
};
MigrationBenchStats migration_stats(const std::string& label, const PlatformConfig& config,
                                    DirtyProtocol protocol, Observer& observer);

// ---- Matrix cells ----

// The workload names run_workload_cell accepts, in canonical order.
const std::vector<std::string>& matrix_workloads();

// The per-cell documents pvm-matrix collects besides the pvm.bench.v1 one.
struct CellDocs {
  // pvm.timeseries.v1, metric names prefixed "<mode>/<workload>/" —
  // deliberately without the seed/policy coordinates, so documents from
  // different seeds of the same (mode, workload) aggregate when merged.
  bool timeseries = false;
  std::uint64_t ts_window_ns = 0;  // 0: ts::kDefaultWindowNs
  // pvm.profile.v1, op keys prefixed "<mode>/<workload>/<label>/" — the run
  // label stays in the key so e.g. the migration workload's WP and PML runs
  // profile separately.
  bool profile = false;
};

// Runs the cell's workload ("switch" | "syscall" | "pagefault" | "boot" |
// "migration") on its own observer and returns its documents. "switch" is a
// raw-simulation micro bench: the cell's mode and fault plan do not apply
// (policy and seed still do). Unknown workloads and exceptions return
// ok=false with the error text.
sweep::CellResult run_workload_cell(const sweep::MatrixCell& cell, const CellDocs& docs);

}  // namespace bench
}  // namespace pvm

#endif  // PVM_BENCH_ENTRIES_H_
