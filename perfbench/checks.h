// Correctness checks of the benchmark's workloads.
//
// Each check takes results the benchmark read off the simulator (counters,
// virtual times, rendered documents) and tests a property the paper's
// method must have, or recomputes a quantity independently of the code
// that produced it. None compares against a stored copy of earlier output.
// The checks are pure functions so that the self-test (selftest.cc) can
// feed each one a deliberately wrong result and see it rejected.

#ifndef PVM_PERFBENCH_CHECKS_H_
#define PVM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/counters.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"

namespace perfbench {

// One failed property, attributed to the cell (simulated platform or fleet
// node group) it speaks about.
struct Violation {
  std::string cell;
  std::string what;
};
using Violations = std::vector<Violation>;

// Deployment labels the ordering checks look up.
inline constexpr const char* kEptNst = "kvm-ept (NST)";
inline constexpr const char* kPvmNst = "pvm (NST)";
inline constexpr const char* kPvmNstNone = "pvm (NST-none)";

// ---- pagefault: the Fig. 10 memstress loop -----------------------------

struct PagefaultCell {
  std::string label;  // kEptNst, kPvmNst or kPvmNstNone
  int processes = 0;
  std::uint64_t bytes_per_process = 0;
  std::uint64_t guest_page_faults = 0;
  std::uint64_t l0_exits = 0;
  std::uint64_t spt_fills = 0;
  std::uint64_t prefault_fills = 0;
  double mean_vns = 0;  // mean per-process virtual time of the loop
  std::size_t pending_tasks = 0;
  bool has_shadow_engine = false;
  std::vector<std::string> coherence_violations;
};

// Guest faults equal across modes and >= processes * bytes / 4096; pvm
// (NST) < 0.01 L0 exits per fault with every SPT fill a prefault; kvm-ept
// (NST) >= 1 L0 exit per fault; mean virtual time pvm (NST) below both
// others; no pending task; no coherence violation.
Violations check_pagefault(const std::vector<PagefaultCell>& cells);

// ---- apps-observed: the Fig. 11 apps with every observer ---------------

struct AppCell {
  std::string mode;  // kEptNst or kPvmNst
  std::string app;   // kbuild | blogbench | specjbb | fluidanimate
  double score = 0;  // seconds for kbuild/fluidanimate, score/kbops otherwise
  bool higher_is_better = false;
  std::size_t pending_tasks = 0;
  int boots_failed = 0;
};

// kvm-ept (NST) worse than pvm (NST) on every app; nothing pending or
// failed to boot.
Violations check_apps(const std::vector<AppCell>& cells);

// A pvm.bench.v1 document parses with obs::json_parse and, for every run
// label, its counters equal the CounterSet read directly off the platform.
Violations check_bench_doc(const std::string& json,
                           const std::vector<std::pair<std::string, pvm::CounterSet>>& runs);

// A pvm.timeseries.v1 document parses with obs::json_parse and with its
// typed reader, and re-renders to the same bytes.
Violations check_timeseries_doc(const std::string& json);

// Per operation kind, rebuilt from a recorder's raw spans without the
// profiler: instances, their summed inclusive time, and the inclusive time
// of operations nested directly inside them (which the profile attributes
// to the nested operation, not to its own paths).
struct OpTotals {
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t nested_op_ns = 0;
};
using OpTotalsMap = std::map<std::string, OpTotals, std::less<>>;

// Adds the op instances of `spans` to `totals` under "<prefix><op name>".
void add_op_totals(const std::vector<pvm::obs::SpanRecord>& spans, const std::string& prefix,
                   OpTotalsMap* totals);

// A pvm.profile.v1 document parses back to `doc`; every op's instance
// count and summed latency equal `totals`; and the exclusive times of its
// paths sum to the root's inclusive time less the nested operations'.
Violations check_profile_doc(const std::string& json, const pvm::prof::ProfDoc& doc,
                             const OpTotalsMap& totals);

// ---- fleet: flashcrowd + bootstorm launches -----------------------------

struct FleetQuantiles {
  std::string name;  // latency histogram name
  std::uint64_t p50 = 0, p99 = 0, p999 = 0, max = 0;
};

struct FleetMode {
  std::string mode;  // deploy_mode_token: "ept" or "pvm"
  std::uint64_t expected_launches = 0;  // the spec's per-mode total
  std::vector<std::uint64_t> node_launches;
  std::uint64_t launches = 0;
  std::uint64_t completions = 0;
  std::uint64_t crashes = 0;
  std::size_t nodes_failed = 0;  // run_node reported !ok
  std::vector<FleetQuantiles> latencies;
};

// launches == completions + crashes; node launches sum to the fleet total;
// pvm has no crash and ept has some; p50 <= p99 <= p999 <= max.
Violations check_fleet(const std::vector<FleetMode>& modes);

// A pvm.fleet.v1 document parses with obs::json_parse, has one group per
// mode, and its rollup launch/completion/crash counts equal `modes`.
Violations check_fleet_doc(const std::string& json, const std::vector<FleetMode>& modes);

}  // namespace perfbench

#endif  // PVM_PERFBENCH_CHECKS_H_
