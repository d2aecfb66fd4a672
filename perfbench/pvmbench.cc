// pvmbench — host-time benchmark of the simulator's own cost.
//
//   pvmbench --workload pagefault|apps-observed|fleet|all --seed N
//            --seconds S --trace 0|1 [--trace-out PATH]
//
// One process, one simulation thread, no worker pool. Each workload is a
// fixed set of cells (one cell = one platform lifetime, or one fleet node)
// built from the seed. A run repeats whole repetitions of the cells until
// --seconds of host time have passed and reports medians; before each
// repetition it times the set-up of the cells (setup_s). Every
// repetition's outputs are checked (checks.h) and must render documents
// byte-identical to the first repetition's, since the seed and therefore
// the simulation are the same. The last stdout line is one JSON object:
// correct, attempted, failed, metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 times every call the benchmark makes into a layer as
// a span, prints the per-layer metrics and writes the spans to
// --trace-out. --workload all runs the three workloads in turn.
//
// Simulated results are virtual time; every timing here is host time.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/checks.h"
#include "src/backends/platform.h"
#include "src/fleet/fleet.h"
#include "src/obs/json.h"
#include "src/obs/json_parse.h"
#include "src/obs/metrics_json.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/sim/resource.h"
#include "src/workloads/apps.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace perfbench {
namespace {

using pvm::Counter;
using pvm::CounterSet;
using pvm::DeployMode;
using pvm::PlatformConfig;
using pvm::VirtualPlatform;
using Clock = std::chrono::steady_clock;

// ---- workload sizes ------------------------------------------------------

constexpr int kPagefaultProcesses = 16;
constexpr std::uint64_t kPagefaultBytes = 4ull << 20;  // per process
constexpr int kAppContainers = 16;
constexpr double kAppSize = 0.02;  // AppParams::size (fig11 uses 0.5 x scale)
constexpr int kAppTimerHz = 1000;
constexpr std::uint64_t kFleetLaunches = 10'000;  // per mode
// The least number of setup_s samples a run takes; setup_s is their median.
constexpr std::size_t kSetupSamples = 9;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- host-time spans -----------------------------------------------------

// Spans of the traced mode: name, start, end and parent, kept in memory and
// written when the run ends. Calls nest synchronously, so a stack gives the
// parent. Disabled, open() returns -1 and nothing is recorded.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t size() const { return spans_.size(); }

  int open(const char* name, Clock::time_point now) {
    if (!enabled_) {
      return -1;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, seconds_between(origin_, now), 0.0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id, Clock::time_point now) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, now);
    stack_.pop_back();
  }

  // Self time (span minus its direct children) summed per name over the
  // spans recorded since index `from`.
  std::map<std::string, double> self_seconds(std::size_t from) const {
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const double length = span.end_s - span.start_s;
      self[span.name] += length;
      if (span.parent >= static_cast<int>(from)) {
        self[spans_[static_cast<std::size_t>(span.parent)].name] -= length;
      }
    }
    return self;
  }

  // One line of JSON: the workload's spans in recording order.
  std::string to_json(const std::string& workload) const {
    pvm::obs::JsonWriter w;
    w.begin_object();
    w.key("schema").value("perfbench.spans.v1");
    w.key("workload").value(workload);
    w.key("spans").begin_array();
    for (const Span& span : spans_) {
      w.begin_object();
      w.key("name").value(span.name);
      w.key("start_ns").value(static_cast<std::uint64_t>(span.start_s * 1e9));
      w.key("end_ns").value(static_cast<std::uint64_t>(span.end_s * 1e9));
      w.key("parent").value(static_cast<std::int64_t>(span.parent));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str() + "\n";
  }

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one call into a layer: adds its host seconds to `*total` (when
// given) and records a span when the tracer is on.
class Timed {
 public:
  Timed(Tracer& tracer, const char* name, double* total = nullptr)
      : tracer_(tracer), total_(total), start_(Clock::now()), span_(tracer.open(name, start_)) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    const Clock::time_point end = Clock::now();
    tracer_.close(span_, end);
    if (total_ != nullptr) {
      *total_ += seconds_between(start_, end);
    }
  }

 private:
  Tracer& tracer_;
  double* total_;
  Clock::time_point start_;
  int span_;
};

// ---- one repetition ------------------------------------------------------

struct Rep {
  double wall_s = 0;      // construction to destruction plus rendering
  double run_s = 0;       // simulate phase
  double excluded_s = 0;  // the benchmark's own checks and reads
  double ops = 0;         // modelled operations of the simulate phase
  std::vector<std::string> cells;
  std::map<std::string, double> cell_wall_s;  // pagefault: per deploy mode
  Violations violations;
  std::size_t failed = 0;
  std::size_t fingerprint = 0;        // hash of every rendered document
  std::map<std::string, double> counts;  // per-layer counts
  std::vector<double> node_s;            // fleet: host time per run_node
  std::map<std::string, double> self_s;  // traced: self time per span name
};

// Cells named by a violation fail; a violation of a whole document fails
// every cell of the repetition.
void count_failed(Rep& rep) {
  std::set<std::string> failed;
  for (const Violation& v : rep.violations) {
    if (std::find(rep.cells.begin(), rep.cells.end(), v.cell) == rep.cells.end()) {
      rep.failed = rep.cells.size();
      return;
    }
    failed.insert(v.cell);
  }
  rep.failed = failed.size();
}

void add_counters(Rep& rep, const CounterSet& c) {
  const std::pair<const char*, Counter> layer_counts[] = {
      {"core.spt_fills", Counter::kSptEntryFilled},
      {"core.prefault_fills", Counter::kPrefaultFill},
      {"core.wp_traps", Counter::kGptWriteProtectTrap},
      {"arch.tlb_misses", Counter::kTlbMiss},
      {"arch.tlb_flushes_avoided", Counter::kTlbFlushAvoided},
      {"hv.l0_exits", Counter::kL0Exit},
      {"hv.world_switches", Counter::kWorldSwitch},
      {"guest.page_faults", Counter::kGuestPageFault},
      {"guest.syscalls", Counter::kSyscall}};
  for (const auto& [name, counter] : layer_counts) {
    rep.counts[name] += static_cast<double>(c.get(counter));
  }
}

// Simulator-side state read at the quiescent point before teardown.
void add_platform_state(Rep& rep, VirtualPlatform& platform) {
  pvm::Simulation& sim = platform.sim();
  rep.counts["sim.events"] += static_cast<double>(sim.events_processed());
  rep.counts["sim.resources_live"] += static_cast<double>(sim.resources().size());
  double& slab = rep.counts["sim.queue_slab_hwm"];
  slab = std::max(slab, static_cast<double>(sim.event_queue_stats().slab.live_high_water));
  double& shadow = rep.counts["core.shadow_pages_hwm"];
  shadow = std::max(shadow, static_cast<double>(platform.engine_alloc_stats().live_high_water));
  double wait = 0;
  for (const pvm::Resource* resource : sim.resources()) {
    wait += static_cast<double>(resource->total_wait_ns());
  }
  rep.counts["sim.lock_wait_vns"] += wait;
  add_counters(rep, platform.counters());
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Sets up every cell of one repetition, as the repetition does before its
  // measured work, and returns the host seconds that took (tear-down of the
  // set-up platforms is not counted).
  virtual double setup_once(Tracer& tracer) = 0;
  // Set-ups per setup_s sample.
  virtual int setups_per_sample() const = 0;
  // One repetition; `first` adds the checks whose cost does not repeat.
  virtual Rep run(Tracer& tracer, bool first) = 0;
  // The traced run's side experiment (pagefault: pvm (NST) at 2x bytes;
  // apps-observed: the same cells bare), or false when there is none.
  virtual bool has_side() const { return false; }
  virtual Rep run_side(Tracer&) { return {}; }
};

// ---- pagefault -----------------------------------------------------------

struct NamedConfig {
  const char* label;
  PlatformConfig config;
};

class PagefaultWorkload : public Workload {
 public:
  explicit PagefaultWorkload(std::uint64_t seed) : seed_(seed) {
    PlatformConfig c;
    c.schedule_seed = seed;
    c.mode = DeployMode::kKvmEptNst;
    configs_.push_back({kEptNst, c});
    c.mode = DeployMode::kPvmNst;
    configs_.push_back({kPvmNst, c});
    PlatformConfig none = c;
    none.prefault = false;
    none.pcid_mapping = false;
    none.fine_grained_locks = false;
    configs_.push_back({kPvmNstNone, none});
  }

  int setups_per_sample() const override { return 32; }

  double setup_once(Tracer& tracer) override {
    double seconds = 0;
    for (const NamedConfig& named : configs_) {
      std::unique_ptr<VirtualPlatform> platform;
      {
        Timed t(tracer, "backends.construct", &seconds);
        platform = std::make_unique<VirtualPlatform>(named.config);
      }
      {
        Timed t(tracer, "guest.boot", &seconds);
        pvm::SecureContainer& container = platform->create_container("c0");
        platform->sim().spawn(container.boot(16));
        platform->sim().run();
      }
    }
    return seconds;
  }

  Rep run(Tracer& tracer, bool) override {
    Rep rep;
    const Clock::time_point start = Clock::now();
    pvm::obs::BenchExport doc("perfbench/pagefault");
    std::vector<std::pair<std::string, CounterSet>> exported;
    std::vector<PagefaultCell> cells;
    for (const NamedConfig& named : configs_) {
      rep.cells.push_back(named.label);
      run_cell(tracer, named, kPagefaultBytes, rep, &doc, &exported, &cells);
    }
    std::string json;
    {
      Timed t(tracer, "obs.render");
      json = doc.to_json();
    }
    {
      Timed t(tracer, "bench.check", &rep.excluded_s);
      rep.counts["obs.doc_mb"] = static_cast<double>(json.size()) / (1 << 20);
      rep.fingerprint = std::hash<std::string>{}(json);
      for (Violation& v : check_pagefault(cells)) {
        rep.violations.push_back(std::move(v));
      }
      for (Violation& v : check_bench_doc(json, exported)) {
        rep.violations.push_back(std::move(v));
      }
    }
    rep.wall_s = seconds_between(start, Clock::now()) - rep.excluded_s;
    return rep;
  }

  bool has_side() const override { return true; }

  // pvm (NST) alone at twice the bytes: the linearity probe.
  Rep run_side(Tracer& tracer) override {
    Rep rep;
    const Clock::time_point start = Clock::now();
    std::vector<PagefaultCell> cells;
    rep.cells.push_back(kPvmNst);
    run_cell(tracer, configs_[1], 2 * kPagefaultBytes, rep, nullptr, nullptr, &cells);
    rep.wall_s = seconds_between(start, Clock::now()) - rep.excluded_s;
    return rep;
  }

 private:
  void run_cell(Tracer& tracer, const NamedConfig& named, std::uint64_t bytes, Rep& rep,
                pvm::obs::BenchExport* doc,
                std::vector<std::pair<std::string, CounterSet>>* exported,
                std::vector<PagefaultCell>* cells) {
    const Clock::time_point cell_start = Clock::now();
    const double excluded_before = rep.excluded_s;
    Timed cell_span(tracer, "cell");
    PagefaultCell cell;
    cell.label = named.label;
    cell.processes = kPagefaultProcesses;
    cell.bytes_per_process = bytes;
    try {
      std::unique_ptr<VirtualPlatform> platform;
      {
        Timed t(tracer, "backends.construct");
        platform = std::make_unique<VirtualPlatform>(named.config);
      }
      pvm::SecureContainer& container = platform->create_container("c0");
      {
        Timed t(tracer, "guest.boot");
        platform->sim().spawn(container.boot(16));
        platform->sim().run();
      }
      pvm::MemStressParams params;
      params.total_bytes = bytes;
      params.release_chunks = true;
      params.seed = seed_;
      const CounterSet before = platform->counters();
      pvm::ConcurrentResult result;
      {
        Timed t(tracer, "workloads.run", &rep.run_s);
        result = pvm::run_processes_in_container(
            *platform, container, kPagefaultProcesses,
            [&](int, pvm::Vcpu& vcpu, pvm::GuestProcess& proc) -> pvm::Task<void> {
              return pvm::memstress_process(container, vcpu, proc, params);
            });
      }
      {
        Timed t(tracer, "bench.check", &rep.excluded_s);
        const CounterSet& counters = platform->counters();
        rep.ops += static_cast<double>(counters.delta_since(before).get(Counter::kGuestPageFault));
        cell.guest_page_faults = counters.get(Counter::kGuestPageFault);
        cell.l0_exits = counters.get(Counter::kL0Exit);
        cell.spt_fills = counters.get(Counter::kSptEntryFilled);
        cell.prefault_fills = counters.get(Counter::kPrefaultFill);
        cell.mean_vns = result.mean_seconds() * 1e9;
        cell.pending_tasks = platform->sim().pending_task_count();
        if (pvm::PvmMemoryEngine* engine = container.shadow_engine()) {
          cell.has_shadow_engine = true;
          cell.coherence_violations = engine->check_coherence(/*strict=*/true);
        }
        add_platform_state(rep, *platform);
      }
      if (doc != nullptr) {
        Timed t(tracer, "obs.fold");
        doc->add_run(named.label, platform->sim(), platform->counters(), nullptr,
                     {{"mean_seconds", result.mean_seconds()}}, {},
                     /*include_resources=*/false);
        exported->emplace_back(named.label, platform->counters());
      }
      {
        Timed t(tracer, "sim.teardown");
        platform.reset();
      }
    } catch (const std::exception& e) {
      rep.violations.push_back({named.label, std::string("threw: ") + e.what()});
    }
    cells->push_back(std::move(cell));
    rep.cell_wall_s[named.label] =
        seconds_between(cell_start, Clock::now()) - (rep.excluded_s - excluded_before);
  }

  std::uint64_t seed_;
  std::vector<NamedConfig> configs_;
};

// ---- apps-observed -------------------------------------------------------

struct App {
  const char* name;
  bool higher_is_better;
  int init_pages;
};

constexpr App kApps[] = {{"kbuild", false, 96},
                         {"blogbench", true, 96},
                         {"specjbb", true, 96},
                         {"fluidanimate", false, 32}};

pvm::Task<void> store_result(pvm::Task<double> app, double* out) { *out = co_await std::move(app); }

// Observers of one cell. Declared before the platform they watch, so the
// platform (whose simulation points at them) is destroyed first.
struct Observers {
  pvm::obs::SpanRecorder spans;
  pvm::ts::Collector collector;
};

class AppsWorkload : public Workload {
 public:
  explicit AppsWorkload(std::uint64_t seed) : seed_(seed) {}

  int setups_per_sample() const override { return 2; }

  double setup_once(Tracer& tracer) override {
    double seconds = 0;
    for (const DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
      for (const App& app : kApps) {
        Observers observers;
        std::unique_ptr<VirtualPlatform> platform;
        {
          Timed t(tracer, "backends.construct", &seconds);
          platform = std::make_unique<VirtualPlatform>(config(mode));
          attach(*platform, observers);
        }
        {
          Timed t(tracer, "guest.boot", &seconds);
          for (int i = 0; i < kAppContainers; ++i) {
            pvm::SecureContainer& c = platform->create_container("c" + std::to_string(i));
            platform->sim().spawn(c.boot(app.init_pages));
          }
          platform->sim().run();
        }
        platform.reset();
      }
    }
    return seconds;
  }

  Rep run(Tracer& tracer, bool first) override { return run_cells(tracer, true, first); }

  bool has_side() const override { return true; }
  Rep run_side(Tracer& tracer) override { return run_cells(tracer, false, false); }

 private:
  PlatformConfig config(DeployMode mode) const {
    PlatformConfig c;
    c.mode = mode;
    c.schedule_seed = seed_;
    return c;
  }

  static void attach(VirtualPlatform& platform, Observers& observers) {
    observers.spans.set_enabled(true);
    platform.sim().set_spans(&observers.spans);
    platform.sim().set_ts(&observers.collector);
  }

  // All eight cells; `observed` attaches every observer and renders the
  // three documents, otherwise the cells run bare (the tax baseline).
  Rep run_cells(Tracer& tracer, bool observed, bool first) {
    Rep rep;
    const Clock::time_point start = Clock::now();
    pvm::obs::BenchExport bench("perfbench/apps-observed");
    pvm::ts::TsDoc ts_doc;
    pvm::prof::ProfDoc prof_doc;
    OpTotalsMap op_totals;
    std::vector<std::pair<std::string, CounterSet>> exported;
    std::vector<AppCell> cells;
    for (const DeployMode mode : {DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
      for (const App& app : kApps) {
        const std::string label = std::string(pvm::deploy_mode_name(mode)) + "/" + app.name;
        rep.cells.push_back(label);
        Timed cell_span(tracer, "cell");
        AppCell cell;
        cell.mode = pvm::deploy_mode_name(mode);
        cell.app = app.name;
        cell.higher_is_better = app.higher_is_better;
        try {
          Observers observers;
          std::unique_ptr<VirtualPlatform> platform;
          {
            Timed t(tracer, "backends.construct");
            platform = std::make_unique<VirtualPlatform>(config(mode));
            if (observed) {
              attach(*platform, observers);
            }
          }
          pvm::ContainersResult result;
          {
            Timed t(tracer, "workloads.run", &rep.run_s);
            result = run_app(*platform, app, &cell.score);
          }
          {
            Timed t(tracer, "bench.check", &rep.excluded_s);
            const CounterSet& counters = platform->counters();
            rep.ops += static_cast<double>(counters.get(Counter::kSyscall) +
                                           counters.get(Counter::kGuestPageFault));
            cell.pending_tasks = platform->sim().pending_task_count();
            cell.boots_failed = result.boots_failed;
            add_platform_state(rep, *platform);
            if (observed) {
              rep.counts["obs.spans"] += static_cast<double>(observers.spans.spans().size() +
                                                             observers.spans.dropped_spans());
              if (observers.spans.dropped_spans() != 0) {
                rep.violations.push_back({label, "span recorder dropped spans"});
              }
              if (first) {
                add_op_totals(observers.spans.spans(), label + "/", &op_totals);
              }
            }
          }
          if (observed) {
            Timed t(tracer, "obs.fold");
            bench.add_run(label, platform->sim(), platform->counters(), &observers.spans,
                          {{"result", cell.score}});
            exported.emplace_back(label, platform->counters());
            std::string error;
            if (!pvm::ts::merge_timeseries(
                    &ts_doc, pvm::ts::prefix_timeseries(observers.collector.drain(), label + "/"),
                    &error) ||
                !pvm::prof::merge_profile(
                    &prof_doc,
                    pvm::prof::prefix_profile(pvm::prof::fold_profile(observers.spans),
                                              label + "/"),
                    &error)) {
              rep.violations.push_back({label, "document merge failed: " + error});
            }
          }
          {
            Timed t(tracer, "sim.teardown");
            platform.reset();
          }
        } catch (const std::exception& e) {
          rep.violations.push_back({label, std::string("threw: ") + e.what()});
        }
        cells.push_back(std::move(cell));
      }
    }
    if (observed) {
      std::string bench_json;
      std::string ts_json;
      std::string prof_json;
      {
        Timed t(tracer, "obs.render");
        bench_json = bench.to_json();
        ts_json = pvm::ts::render_timeseries_json(ts_doc);
        prof_json = pvm::prof::render_profile_json(prof_doc);
      }
      Timed t(tracer, "bench.check", &rep.excluded_s);
      rep.counts["obs.doc_mb"] =
          static_cast<double>(bench_json.size() + ts_json.size() + prof_json.size()) / (1 << 20);
      const std::hash<std::string> hash;
      rep.fingerprint = hash(bench_json) ^ (hash(ts_json) * 3) ^ (hash(prof_json) * 7);
      if (first) {
        for (Violations found : {check_bench_doc(bench_json, exported),
                                 check_timeseries_doc(ts_json),
                                 check_profile_doc(prof_json, prof_doc, op_totals)}) {
          for (Violation& v : found) {
            rep.violations.push_back(std::move(v));
          }
        }
      }
    }
    {
      Timed t(tracer, "bench.check", &rep.excluded_s);
      for (Violation& v : check_apps(cells)) {
        rep.violations.push_back(std::move(v));
      }
    }
    rep.wall_s = seconds_between(start, Clock::now()) - rep.excluded_s;
    return rep;
  }

  pvm::ContainersResult run_app(VirtualPlatform& platform, const App& app, double* score) {
    pvm::AppParams params;
    params.size = kAppSize;
    params.seed = seed_;
    const std::string name = app.name;
    std::vector<double> values(kAppContainers, 0.0);
    pvm::ContainersResult result = pvm::run_containers(
        platform, kAppContainers,
        [&](int index, pvm::SecureContainer& c, pvm::Vcpu& vcpu,
            pvm::GuestProcess& proc) -> pvm::Task<void> {
          if (name == "kbuild") {
            return pvm::app_kbuild(c, vcpu, proc, params);
          }
          if (name == "fluidanimate") {
            return pvm::app_fluidanimate(c, params, /*threads=*/4, /*frames=*/16);
          }
          double* out = &values[static_cast<std::size_t>(index)];
          return name == "blogbench" ? store_result(pvm::app_blogbench(c, vcpu, proc, params), out)
                                     : store_result(pvm::app_specjbb(c, vcpu, proc, params), out);
        },
        app.init_pages, kAppTimerHz);
    if (name == "kbuild" || name == "fluidanimate") {
      *score = result.mean_seconds();
    } else {
      double sum = 0;
      for (const double v : values) {
        sum += v;
      }
      *score = sum / kAppContainers;
    }
    return result;
  }

  std::uint64_t seed_;
};

// ---- fleet ---------------------------------------------------------------

class FleetWorkload : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) {
    // The flashcrowd scenario of pvm-fleet with its bootstorm plan.
    spec_.arrival.kind = pvm::fleet::ArrivalKind::kBurst;
    spec_.arrival.rate_per_sec = 1000;
    spec_.arrival.burst_factor = 10;
    spec_.arrival.burst_every_ns = 2'000'000'000ull;
    spec_.arrival.burst_len_ns = 250'000'000ull;
    spec_.arrival.seed = seed;
    spec_.fault_plan = "bootstorm:seed=" + std::to_string(seed);
    spec_.launches = kFleetLaunches;
    spec_.seed = seed;
    spec_.schedule_seed = seed;
  }

  // Set-up is generating each node's arrivals, the input run_node is
  // driven by; the nodes build and boot their platforms inside run_node,
  // which is measured work. One set-up takes ~16 ms.
  int setups_per_sample() const override { return 4; }

  double setup_once(Tracer& tracer) override {
    double seconds = 0;
    for (std::size_t m = 0; m < spec_.modes.size(); ++m) {
      for (std::size_t node = 0; node < spec_.nodes; ++node) {
        Timed t(tracer, "fleet.arrivals", &seconds);
        const std::vector<std::uint64_t> arrivals = pvm::fleet::node_arrivals(spec_, node);
        if (arrivals.empty()) {
          throw std::logic_error("fleet node without arrivals");
        }
      }
    }
    return seconds;
  }

  Rep run(Tracer& tracer, bool first) override {
    Rep rep;
    const Clock::time_point start = Clock::now();
    auto result = std::make_unique<pvm::fleet::FleetResult>();
    std::vector<FleetMode> modes;
    for (const DeployMode mode : spec_.modes) {
      pvm::fleet::FleetGroup group;
      group.mode = mode;
      group.rollup.window_ns = spec_.window_ns;
      FleetMode checked;
      checked.mode = pvm::deploy_mode_token(mode);
      checked.expected_launches = spec_.launches;
      for (std::size_t node = 0; node < spec_.nodes; ++node) {
        const std::string label = checked.mode + "/n" + std::to_string(node);
        rep.cells.push_back(label);
        pvm::fleet::NodeOutcome outcome;
        double node_s = 0;
        {
          Timed t(tracer, "fleet.node", &node_s);
          outcome = pvm::fleet::run_node(spec_, mode, node);
        }
        rep.run_s += node_s;
        rep.node_s.push_back(node_s);
        Timed t(tracer, "bench.check", &rep.excluded_s);
        if (!outcome.ok) {
          ++checked.nodes_failed;
          rep.violations.push_back({label, "run_node failed: " + outcome.error});
        }
        const auto launches = outcome.doc.series.find("fleet/launches");
        checked.node_launches.push_back(launches == outcome.doc.series.end()
                                            ? 0
                                            : static_cast<std::uint64_t>(launches->second.total));
        rep.counts["sim.events"] += static_cast<double>(outcome.events);
        read_node_counters(outcome.bench_json, label, rep);
        group.nodes.push_back(std::move(outcome));
      }
      {
        Timed t(tracer, "obs.fold");
        for (const pvm::fleet::NodeOutcome& node : group.nodes) {
          std::string error;
          if (!pvm::ts::merge_timeseries(&group.rollup, node.doc, &error)) {
            rep.violations.push_back({checked.mode, "rollup merge failed: " + error});
          }
        }
        std::string error;
        if (!pvm::ts::merge_timeseries(
                &result->fleetwide,
                pvm::ts::prefix_timeseries(group.rollup,
                                           std::string(pvm::deploy_mode_token(mode)) + "/"),
                &error)) {
          rep.violations.push_back({checked.mode, "fleet-wide merge failed: " + error});
        }
      }
      {
        Timed t(tracer, "bench.check", &rep.excluded_s);
        const auto total = [&](const char* name) -> std::uint64_t {
          const auto it = group.rollup.series.find(name);
          return it == group.rollup.series.end() ? 0 : static_cast<std::uint64_t>(it->second.total);
        };
        checked.launches = total("fleet/launches");
        checked.completions = total("fleet/completions");
        checked.crashes = total("fleet/crashes");
        rep.counts["fleet.warm_starts"] += static_cast<double>(total("fleet/warm_starts"));
        rep.counts["fleet.restore_starts"] += static_cast<double>(total("fleet/restore_starts"));
        rep.counts["fleet.cold_starts"] += static_cast<double>(total("fleet/cold_starts"));
        rep.ops += static_cast<double>(checked.launches);
        for (const auto& [name, hist] : group.rollup.hists) {
          const pvm::ts::MergeableHistogram h = hist.cumulative();
          checked.latencies.push_back(
              {name, h.quantile(0.50), h.quantile(0.99), h.quantile(0.999), h.max()});
        }
      }
      modes.push_back(std::move(checked));
      result->groups.push_back(std::move(group));
    }
    std::string json;
    {
      Timed t(tracer, "obs.render");
      json = pvm::fleet::render_fleet_json(spec_, *result);
    }
    {
      Timed t(tracer, "bench.check", &rep.excluded_s);
      rep.counts["obs.doc_mb"] = static_cast<double>(json.size()) / (1 << 20);
      rep.fingerprint = std::hash<std::string>{}(json);
      for (Violation& v : check_fleet(modes)) {
        rep.violations.push_back(std::move(v));
      }
      if (first) {
        for (Violation& v : check_fleet_doc(json, modes)) {
          rep.violations.push_back(std::move(v));
        }
      }
    }
    {
      Timed t(tracer, "sim.teardown");
      result.reset();
    }
    rep.wall_s = seconds_between(start, Clock::now()) - rep.excluded_s;
    return rep;
  }

 private:
  // Node platforms live inside run_node; their counters reach the
  // benchmark only through the embedded pvm.bench.v1 document.
  static void read_node_counters(const std::string& bench_json, const std::string& label,
                                 Rep& rep) {
    pvm::obs::JsonValue doc;
    std::string error;
    const pvm::obs::JsonValue* runs = nullptr;
    if (pvm::obs::json_parse(bench_json, &doc, &error)) {
      runs = doc.find("runs");
    }
    if (runs == nullptr || !runs->is_array() || runs->array.size() != 1 ||
        runs->array[0].find("counters") == nullptr) {
      rep.violations.push_back({label, "node pvm.bench.v1 unreadable: " + error});
      return;
    }
    const pvm::obs::JsonValue& counters = *runs->array[0].find("counters");
    CounterSet set;
    for (std::size_t c = 0; c < pvm::kCounterCount; ++c) {
      const auto counter = static_cast<Counter>(c);
      if (const pvm::obs::JsonValue* v = counters.find(pvm::counter_name(counter))) {
        set.add(counter, static_cast<std::uint64_t>(v->number));
      }
    }
    add_counters(rep, set);
  }

  pvm::fleet::FleetSpec spec_;
};

// ---- command line and run loop --------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "pvmbench: %s\n"
               "usage: pvmbench --workload pagefault|apps-observed|fleet|all --seed N\n"
               "                --seconds S --trace 0|1 [--trace-out PATH]\n",
               error.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag " + arg);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("bad number for " + arg + ": " + value);
    }
  }
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    usage("--seconds is required, in (0, 600]");
  }
  return options;
}

constexpr const char* kWorkloads[] = {"pagefault", "apps-observed", "fleet"};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pagefault") {
    return std::make_unique<PagefaultWorkload>(seed);
  }
  if (name == "apps-observed") {
    return std::make_unique<AppsWorkload>(seed);
  }
  if (name == "fleet") {
    return std::make_unique<FleetWorkload>(seed);
  }
  usage("unknown workload '" + name + "'");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::string spans_json;  // traced run only
};

// Runs one workload for options.seconds and prints its metrics.
// peak_rss_mb is the process's high-water mark, so it is reported here only
// when the workload runs alone (with_rss); run() reports it once otherwise.
Outcome run_workload(const Options& options, const std::string& name, bool with_rss) {
  std::unique_ptr<Workload> workload = make_workload(name, options.seed);
  Tracer tracer;

  // Set-up samples, each the mean of setups_per_sample() set-ups of one
  // repetition's cells. One is taken before every repetition, so that the
  // samples spread over the run like the repetitions do, and the run tops
  // up to kSetupSamples; a first sample warms the heap and is dropped.
  const int per_sample = workload->setups_per_sample();
  std::vector<double> setup_s;
  std::vector<double> construct_s;
  std::vector<double> boot_s;
  const auto take_setup_sample = [&] {
    tracer.set_enabled(options.trace);
    const std::size_t from = tracer.size();
    double seconds = 0;
    for (int i = 0; i < per_sample; ++i) {
      seconds += workload->setup_once(tracer);
    }
    setup_s.push_back(seconds / per_sample);
    const std::map<std::string, double> self = tracer.self_seconds(from);
    const auto get = [&](const char* key) {
      const auto it = self.find(key);
      return it == self.end() ? 0.0 : it->second / per_sample;
    };
    construct_s.push_back(get("backends.construct"));
    boot_s.push_back(get("guest.boot"));
  };
  take_setup_sample();
  setup_s.clear();
  construct_s.clear();
  boot_s.clear();

  // Measurement: whole repetitions until --seconds have passed. The first
  // repetition warms caches and the heap and runs the checks that do not
  // repeat; it is checked and counted but not timed. The traced run then
  // cycles untraced, traced and (where there is one) side repetitions.
  enum Kind { kUntraced, kTraced, kSide };
  constexpr Kind kCycle[] = {kUntraced, kTraced, kSide};
  const std::size_t kinds = options.trace ? (workload->has_side() ? 3 : 2) : 1;
  std::vector<Rep> main_reps;    // untraced: the end-to-end metrics
  std::vector<Rep> traced_reps;  // traced run only
  std::vector<Rep> side_reps;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t first_fingerprint = 0;
  Violations violations;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i <= kinds || seconds_between(start, Clock::now()) < options.seconds;
       ++i) {
    take_setup_sample();
    const Kind kind = i == 0 ? kUntraced : kCycle[(i - 1) % kinds];
    tracer.set_enabled(kind == kTraced);
    const std::size_t from = tracer.size();
    Rep rep = kind == kSide ? workload->run_side(tracer) : workload->run(tracer, i == 0);
    if (kind != kSide) {
      if (i == 0) {
        first_fingerprint = rep.fingerprint;
      } else if (rep.fingerprint != first_fingerprint) {
        rep.violations.push_back({"repetition", "documents differ from the first repetition's"});
      }
    }
    count_failed(rep);
    attempted += rep.cells.size();
    failed += rep.failed;
    for (const Violation& v : rep.violations) {
      if (violations.size() < 20) {
        violations.push_back(v);
      }
    }
    rep.self_s = tracer.self_seconds(from);
    if (i > 0) {
      (kind == kTraced ? traced_reps : kind == kUntraced ? main_reps : side_reps)
          .push_back(std::move(rep));
    }
  }
  while (setup_s.size() < kSetupSamples) {
    take_setup_sample();
  }

  for (const Violation& v : violations) {
    std::fprintf(stderr, "pvmbench: VIOLATION [%s] %s\n", v.cell.c_str(), v.what.c_str());
  }

  const auto med = [](const std::vector<Rep>& reps, const std::function<double(const Rep&)>& f) {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      values.push_back(f(rep));
    }
    return median(values);
  };

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics.push_back({"wall_s", "s", med(main_reps, [](const Rep& r) { return r.wall_s; })});
    metrics.push_back({"sim_ops_per_s", "1/s",
                       med(main_reps, [](const Rep& r) { return r.ops / r.run_s; })});
    metrics.push_back({"setup_s", "s", median(setup_s)});
    if (with_rss) {
      metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
    }
  } else {
    const Rep& counted = traced_reps.front();
    const auto count = [&](const char* key) {
      const auto it = counted.counts.find(key);
      return it == counted.counts.end() ? 0.0 : it->second;
    };
    const auto self = [&](const char* key) {
      return med(traced_reps, [key](const Rep& r) {
        const auto it = r.self_s.find(key);
        return it == r.self_s.end() ? 0.0 : it->second;
      });
    };
    const double run_s = med(traced_reps, [](const Rep& r) { return r.run_s; });
    std::vector<double> node_s;
    for (const Rep& rep : traced_reps) {
      node_s.insert(node_s.end(), rep.node_s.begin(), rep.node_s.end());
    }
    const double wall_traced = med(traced_reps, [](const Rep& r) { return r.wall_s; });
    const double wall_untraced = med(main_reps, [](const Rep& r) { return r.wall_s; });
    double tax_ratio = 1.0;  // no observer attached: observed and bare are the same cells
    double scale_ratio = 0.0;  // measured on pagefault only
    if (name == "apps-observed") {
      tax_ratio = wall_untraced / med(side_reps, [](const Rep& r) { return r.wall_s; });
    } else if (name == "pagefault") {
      const double at_1x =
          med(main_reps, [](const Rep& r) { return r.cell_wall_s.at(kPvmNst); });
      const double at_2x =
          med(side_reps, [](const Rep& r) { return r.cell_wall_s.at(kPvmNst); });
      scale_ratio = at_2x / (2.0 * at_1x);
    }
    // Fleet operations are launches, so ns per launch is run time per op.
    const double ns_per_launch =
        name == "fleet" ? run_s / counted.ops * 1e9 : 0.0;
    metrics = {
        {"sim.ns_per_event", "ns", run_s / count("sim.events") * 1e9},
        {"sim.events", "count", count("sim.events")},
        {"sim.teardown_s", "s", self("sim.teardown")},
        {"sim.resources_live", "count", count("sim.resources_live")},
        {"sim.queue_slab_hwm", "count", count("sim.queue_slab_hwm")},
        {"sim.lock_wait_vns", "vns", count("sim.lock_wait_vns")},
        {"core.shadow_pages_hwm", "count", count("core.shadow_pages_hwm")},
        {"core.spt_fills", "count", count("core.spt_fills")},
        {"core.prefault_fills", "count", count("core.prefault_fills")},
        {"core.wp_traps", "count", count("core.wp_traps")},
        {"arch.tlb_misses", "count", count("arch.tlb_misses")},
        {"arch.tlb_flushes_avoided", "count", count("arch.tlb_flushes_avoided")},
        {"hv.l0_exits", "count", count("hv.l0_exits")},
        {"hv.world_switches", "count", count("hv.world_switches")},
        {"guest.page_faults", "count", count("guest.page_faults")},
        {"guest.syscalls", "count", count("guest.syscalls")},
        {"guest.boot_s", "s", median(boot_s)},
        {"backends.construct_s", "s", median(construct_s)},
        {"workloads.run_s", "s", run_s},
        {"obs.spans", "count", count("obs.spans")},
        {"obs.render_s", "s", self("obs.render")},
        {"obs.fold_s", "s", self("obs.fold")},
        {"obs.doc_mb", "MiB", count("obs.doc_mb")},
        {"obs.tax_ratio", "ratio", tax_ratio},
        {"fleet.node_s", "s", median(node_s)},
        {"fleet.ns_per_launch", "ns", ns_per_launch},
        {"fleet.warm_starts", "count", count("fleet.warm_starts")},
        {"fleet.restore_starts", "count", count("fleet.restore_starts")},
        {"fleet.cold_starts", "count", count("fleet.cold_starts")},
        {"pagefault.wall_scale_ratio", "ratio", scale_ratio},
        {"trace.overhead_ratio", "ratio", wall_traced / wall_untraced},
    };
  }

  std::printf("pvmbench %s seed=%llu trace=%d: %zu timed repetition(s) after a warm-up, "
              "%zu cell(s) attempted, %zu failed\n",
              name.c_str(), static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
              main_reps.size() + traced_reps.size() + side_reps.size(), attempted, failed);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Outcome outcome;
  outcome.attempted = attempted;
  outcome.failed = failed;
  outcome.correct = failed == 0 && violations.empty();
  outcome.metrics = std::move(metrics);
  if (options.trace) {
    outcome.spans_json = tracer.to_json(name);
  }
  return outcome;
}

// One workload, or with --workload all each in turn in this one process
// (metrics then named "<workload>/<metric>", except peak_rss_mb: the peak of
// a later workload would include an earlier one's, so it is reported once,
// for the whole process). The last stdout line is the JSON result.
int run(const Options& options) {
  std::vector<std::string> names;
  if (options.workload == "all") {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    names.push_back(options.workload);
  }
  Outcome total;
  std::string spans;
  for (const std::string& name : names) {
    Outcome one = run_workload(options, name, names.size() == 1);
    total.attempted += one.attempted;
    total.failed += one.failed;
    total.correct = total.correct && one.correct;
    for (Metric& m : one.metrics) {
      total.metrics.push_back({names.size() > 1 ? name + "/" + m.name : m.name, m.unit, m.value});
    }
    spans += one.spans_json;
  }
  if (names.size() > 1 && !options.trace) {
    total.metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb()});
  }
  if (!options.trace_out.empty()) {
    if (std::FILE* file = std::fopen(options.trace_out.c_str(), "wb")) {
      std::fwrite(spans.data(), 1, spans.size(), file);
      std::fclose(file);
    } else {
      std::fprintf(stderr, "pvmbench: cannot write %s\n", options.trace_out.c_str());
    }
  }
  // Written by hand: JsonWriter rounds doubles to six decimals, and a
  // metric must keep all its digits.
  std::string json = std::string("{\"correct\": ") + (total.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(total.attempted) +
                     ", \"failed\": " + std::to_string(total.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < total.metrics.size(); ++i) {
    const Metric& m = total.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvmbench: %s\n", e.what());
    return 1;
  }
}
