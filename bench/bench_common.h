// Shared helpers for the per-table/per-figure benchmark binaries.
//
// Every binary prints the rows/series of one table or figure from the paper,
// regenerated on the simulated platform, alongside the paper's published
// values where useful. Absolute values need not match (the substrate is a
// simulator, not the authors' testbed); the *shape* — who wins, by roughly
// what factor, where crossovers fall — is the reproduction target.

#ifndef PVM_BENCH_BENCH_COMMON_H_
#define PVM_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/entries.h"
#include "src/backends/platform.h"
#include "src/metrics/table.h"

namespace pvm {

struct Scenario {
  std::string label;
  PlatformConfig config;
};

// The paper's five deployment scenarios (§4).
inline std::vector<Scenario> five_scenarios(bool kpti = true) {
  std::vector<Scenario> scenarios;
  for (DeployMode mode : {DeployMode::kKvmEptBm, DeployMode::kKvmSptBm, DeployMode::kPvmBm,
                          DeployMode::kKvmEptNst, DeployMode::kPvmNst}) {
    PlatformConfig config;
    config.mode = mode;
    config.kpti = kpti;
    scenarios.push_back({std::string(deploy_mode_name(mode)), config});
  }
  return scenarios;
}

// Workload size multiplier, settable via the PVM_BENCH_SCALE environment
// variable (e.g. 0.1 for a quick smoke run). Benches already run at a
// documented scale-down versus the paper's sizes; this stacks on top.
inline double bench_scale() {
  const char* env = std::getenv("PVM_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double value = std::atof(env);
  return value > 0 ? value : 1.0;
}

inline double to_us(SimTime ns) { return static_cast<double>(ns) / 1e3; }
inline double to_seconds(SimTime ns) { return static_cast<double>(ns) / 1e9; }

inline void print_header(const char* experiment, const char* paper_ref, const char* notes) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  if (notes != nullptr && notes[0] != '\0') {
    std::printf("%s\n", notes);
  }
  std::printf("==============================================================\n\n");
}

// Shared machine-readable output for the bench binaries:
//
//   --json <path>    export every recorded run in the versioned metrics
//                    schema (obs::kBenchSchemaVersion)
//   --trace <path>   export a Chrome trace-event file (load in Perfetto /
//                    chrome://tracing) of the last recorded run
//   --report         print the pvm-report text summary (top contended
//                    resources, phase breakdown, op latencies) per run
//   --faults <plan>  arm a deterministic fault plan ("<preset>[:seed=N]",
//                    see fault::FaultPlan::parse) on every platform; "none"
//                    disables, including a bench's own default plan
//   --alloc-stats    add the `alloc` section (event-queue calendar shape,
//                    slab live/high-water accounting, shadow-engine node
//                    slabs) to each exported run; off by default so the
//                    default --json output stays byte-identical
//   --timeseries <path>  export a pvm.timeseries.v1 document: windowed
//                    counters/gauges and mergeable latency histograms on
//                    the virtual clock, one metric namespace per recorded
//                    run ("<label>/<metric>"). Render with pvm-top.
//   --ts-window <ns> tumbling-window width in virtual ns (default 1ms)
//   --slo <spec>     evaluate an SLO against the timeseries export
//                    ("<name>:<metric>:<quantile><=<threshold>[:window]",
//                    e.g. "boot:boot_latency_ns:p99<=15ms"); repeatable.
//                    Verdicts embed in the document; gate with
//                    `benchdiff --slo-check`.
//   --flight-capacity <n>  per-track flight-recorder ring capacity on every
//                    observed platform (default 256)
//   --profile <path> export a pvm.profile.v1 document: the critical-path
//                    fold of every recorded run's span tree (per-op phase
//                    paths with exclusive virtual ns, tail cohort at the
//                    fold-time p99, worst-instance anchors), one namespace
//                    per run ("<label>/<op>"). Render with pvm-profile.
//
// A BenchIo is the binary's bench::Observer, filled from these flags; it
// writes the documents when the binary finishes. An unknown argument, a
// missing value or a malformed one prints a message and exits 2. With none
// of the flags given nothing is recorded and no span recorder is attached,
// so simulations run exactly as without an observer (the instrumented sites
// see a null recorder — one pointer check).
class BenchIo final : public bench::Observer {
 public:
  // Arguments no flag consumes are rejected, unless `unconsumed` is given:
  // then they are appended to it after argv[0], for another parser.
  BenchIo(int argc, char** argv, std::string bench_name,
          std::vector<char*>* unconsumed = nullptr)
      : BenchIo(parse(argc, argv, unconsumed), std::move(bench_name)) {}

  ~BenchIo() { finish(); }

  // A bench that models faults by default (fig12's boot storm) declares its
  // plan here; an explicit --faults (including "none") wins.
  void set_default_fault_plan(const std::string& plan) {
    if (options().fault_plan.empty()) {
      options().fault_plan = plan;
    }
  }
  const std::string& fault_plan() { return options().fault_plan; }

  void finish() {
    if (finished_) {
      return;
    }
    finished_ = true;
    if (!files_.json.empty()) {
      write_file(files_.json, bench().to_json());
      std::printf("[bench] wrote %zu run(s) to %s\n", bench().run_count(), files_.json.c_str());
    }
    if (!files_.trace.empty()) {
      if (!trace_json().empty()) {
        write_file(files_.trace, trace_json());
      }
      std::printf("[bench] wrote Chrome trace to %s\n", files_.trace.c_str());
    }
    if (!files_.timeseries.empty()) {
      ts::TsDoc& doc = timeseries();
      ts::evaluate_slos(&doc, files_.slos);
      write_file(files_.timeseries, ts::render_timeseries_json(doc));
      std::size_t failed = 0;
      for (const ts::SloResult& slo : doc.slos) {
        if (!slo.pass) {
          ++failed;
        }
      }
      std::printf("[bench] wrote timeseries (%zu series, %zu hists, %zu SLO(s), %zu failed) to %s\n",
                  doc.series.size(), doc.hists.size(), doc.slos.size(), failed,
                  files_.timeseries.c_str());
    }
    if (!files_.profile.empty()) {
      write_file(files_.profile, prof::render_profile_json(profile()));
      std::printf("[bench] wrote profile (%zu op(s)) to %s\n", profile().ops.size(),
                  files_.profile.c_str());
    }
  }

 private:
  struct Files {
    std::string json;
    std::string trace;
    std::string timeseries;
    std::string profile;
    std::vector<ts::SloSpec> slos;
  };
  struct Parsed {
    bench::ObserverOptions options;
    Files files;
  };

  BenchIo(Parsed parsed, std::string bench_name)
      : bench::Observer(std::move(bench_name), std::move(parsed.options)),
        files_(std::move(parsed.files)) {}

  [[noreturn]] static void usage_error(const std::string& message) {
    std::fprintf(stderr,
                 "[bench] %s\n[bench] flags: --json <path> --trace <path> --report "
                 "--faults <plan> --alloc-stats --timeseries <path> --ts-window <ns> "
                 "--slo <spec> --flight-capacity <n> --profile <path>\n",
                 message.c_str());
    std::exit(2);
  }

  static std::uint64_t parse_count(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE) {
      usage_error("bad " + flag + " value '" + text + "': expected a non-negative integer");
    }
    return value;
  }

  // The one flag table: every flag the binaries take, parsed in one place.
  static Parsed parse(int argc, char** argv, std::vector<char*>* unconsumed) {
    Parsed parsed;
    bench::ObserverOptions& options = parsed.options;
    Files& files = parsed.files;
    if (unconsumed != nullptr && argc > 0) {
      unconsumed->push_back(argv[0]);
    }
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--report") {
        options.report = true;
        continue;
      }
      if (flag == "--alloc-stats") {
        options.alloc_stats = true;
        continue;
      }
      if (flag != "--json" && flag != "--trace" && flag != "--faults" &&
          flag != "--timeseries" && flag != "--ts-window" && flag != "--slo" &&
          flag != "--flight-capacity" && flag != "--profile") {
        if (unconsumed == nullptr) {
          usage_error("unknown argument '" + flag + "'");
        }
        unconsumed->push_back(argv[i]);
        continue;
      }
      if (i + 1 >= argc) {
        usage_error("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--json") {
        files.json = value;
      } else if (flag == "--trace") {
        files.trace = value;
      } else if (flag == "--timeseries") {
        files.timeseries = value;
      } else if (flag == "--profile") {
        files.profile = value;
      } else if (flag == "--ts-window") {
        options.ts_window_ns = parse_count(flag, value);
      } else if (flag == "--flight-capacity") {
        options.flight_capacity = parse_count(flag, value);
      } else if (flag == "--faults") {
        try {
          fault::FaultPlan::parse(value);
        } catch (const std::exception& e) {
          usage_error("bad --faults plan '" + value + "': " + e.what());
        }
        options.fault_plan = value;
      } else {  // --slo
        ts::SloSpec spec;
        std::string error;
        if (!ts::parse_slo_spec(value, &spec, &error)) {
          usage_error("bad --slo spec '" + value + "': " + error);
        }
        files.slos.push_back(std::move(spec));
      }
    }
    options.record = options.export_spans = !files.json.empty() || !files.trace.empty() ||
                                             options.report || !files.timeseries.empty() ||
                                             !files.profile.empty();
    options.trace = !files.trace.empty();
    options.timeseries = !files.timeseries.empty();
    options.profile = !files.profile.empty();
    return parsed;
  }

  static void write_file(const std::string& path, const std::string& content) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "[bench] cannot open %s for writing\n", path.c_str());
      return;
    }
    std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);
  }

  Files files_;
  bool finished_ = false;
};

}  // namespace pvm

#endif  // PVM_BENCH_BENCH_COMMON_H_
