// Self-test of the benchmark's checks: each check must accept a result
// that has the properties it tests and reject the same result with one
// property broken. Exits 0 when every case behaves, 1 otherwise.
//
//   pvmbench_selftest

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/checks.h"
#include "src/obs/metrics_json.h"
#include "src/obs/ts.h"
#include "src/sim/simulation.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(const char* name, const Violations& found, bool want_rejected) {
  const bool rejected = !found.empty();
  std::printf("%-58s %s\n", name,
              rejected == want_rejected ? (rejected ? "rejected (ok)" : "accepted (ok)")
                                        : (rejected ? "REJECTED (wrong)" : "ACCEPTED (wrong)"));
  if (rejected != want_rejected) {
    ++failures;
    for (const Violation& v : found) {
      std::printf("    [%s] %s\n", v.cell.c_str(), v.what.c_str());
    }
  }
}

// A pagefault result with every property the check asks for.
std::vector<PagefaultCell> good_pagefault() {
  PagefaultCell base;
  base.processes = 16;
  base.bytes_per_process = 4 << 20;
  base.guest_page_faults = 16 * 1024 + 40;
  std::vector<PagefaultCell> cells(3, base);
  cells[0].label = kEptNst;
  cells[0].l0_exits = 2 * cells[0].guest_page_faults;
  cells[0].mean_vns = 9e6;
  cells[1].label = kPvmNst;
  cells[1].l0_exits = 3;
  cells[1].spt_fills = cells[1].prefault_fills = 16 * 1024;
  cells[1].mean_vns = 2e6;
  cells[1].has_shadow_engine = true;
  cells[2].label = kPvmNstNone;
  cells[2].l0_exits = 3;
  cells[2].spt_fills = 16 * 1024;
  cells[2].mean_vns = 5e6;
  cells[2].has_shadow_engine = true;
  return cells;
}

std::vector<AppCell> good_apps() {
  std::vector<AppCell> cells;
  const std::pair<const char*, bool> apps[] = {
      {"kbuild", false}, {"blogbench", true}, {"specjbb", true}, {"fluidanimate", false}};
  for (const auto& [app, higher] : apps) {
    // ept is worse: lower where higher is better, higher otherwise.
    cells.push_back({kEptNst, app, higher ? 10.0 : 30.0, higher, 0, 0});
    cells.push_back({kPvmNst, app, higher ? 20.0 : 15.0, higher, 0, 0});
  }
  return cells;
}

std::vector<FleetMode> good_fleet() {
  FleetMode ept;
  ept.mode = "ept";
  ept.expected_launches = 100;
  ept.node_launches = {60, 40};
  ept.launches = 100;
  ept.completions = 70;
  ept.crashes = 30;
  ept.latencies = {{"fleet/start_ns", 10, 20, 30, 40}};
  FleetMode pvm = ept;
  pvm.mode = "pvm";
  pvm.completions = 100;
  pvm.crashes = 0;
  return {ept, pvm};
}

// A boot op with a page-fault op nested inside it, recorded on a hand-driven
// clock, folded by the profiler and totalled from the raw spans.
pvm::prof::ProfDoc nested_profile(OpTotalsMap* totals) {
  using pvm::obs::Phase;
  pvm::obs::SpanRecorder recorder;
  std::uint64_t now = 0;
  const std::int64_t root = 0;
  recorder.bind(&now, &root);
  recorder.set_enabled(true);
  const auto boot = recorder.begin(Phase::kOpBoot);
  now = 10;
  const auto fill = recorder.begin(Phase::kSptFill);
  now = 30;
  recorder.end(fill);
  now = 40;
  const auto fault = recorder.begin(Phase::kOpPageFault);
  now = 45;
  const auto inner = recorder.begin(Phase::kSptFill);
  now = 60;
  recorder.end(inner);
  now = 70;
  recorder.end(fault);
  now = 100;
  recorder.end(boot);
  add_op_totals(recorder.spans(), "cell/", totals);
  return pvm::prof::prefix_profile(pvm::prof::fold_profile(recorder), "cell/");
}

// A one-run pvm.bench.v1 document over a counter set with a few values.
std::pair<std::string, std::vector<std::pair<std::string, pvm::CounterSet>>> good_bench() {
  pvm::Simulation sim;
  pvm::CounterSet counters;
  counters.add(pvm::Counter::kGuestPageFault, 4096);
  counters.add(pvm::Counter::kL0Exit, 7);
  pvm::obs::BenchExport bench("selftest");
  bench.add_run("cell", sim, counters, nullptr, {{"result", 1.0}});
  return {bench.to_json(), {{"cell", counters}}};
}

std::string fleet_doc(const std::vector<FleetMode>& modes) {
  std::string json = "{\"schema\":\"pvm.fleet.v1\",\"groups\":[";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    json += (i == 0 ? "" : ",") + std::string("{\"mode\":\"") + modes[i].mode +
            "\",\"rollup\":{\"counts\":{\"fleet/launches\":" + std::to_string(modes[i].launches) +
            ",\"fleet/completions\":" + std::to_string(modes[i].completions) +
            ",\"fleet/crashes\":" + std::to_string(modes[i].crashes) + "}}}";
  }
  return json + "]}";
}

template <typename T>
T mutated(T value, const std::function<void(T&)>& change) {
  change(value);
  return value;
}

void run() {
  using PF = std::vector<PagefaultCell>;
  expect("pagefault: consistent result", check_pagefault(good_pagefault()), false);
  expect("pagefault: one mode's fault count off by one",
         check_pagefault(mutated<PF>(good_pagefault(), [](PF& c) { ++c[1].guest_page_faults; })),
         true);
  expect("pagefault: fewer faults than touched pages",
         check_pagefault(mutated<PF>(good_pagefault(),
                                     [](PF& c) {
                                       for (PagefaultCell& cell : c) {
                                         cell.guest_page_faults = 16 * 1024 - 1;
                                       }
                                     })),
         true);
  expect("pagefault: pvm (NST) at 0.01 L0 exits per fault",
         check_pagefault(mutated<PF>(good_pagefault(),
                                     [](PF& c) {
                                       c[1].l0_exits = c[1].guest_page_faults / 100 + 1;
                                     })),
         true);
  expect("pagefault: pvm (NST) prefault coverage below 1.0",
         check_pagefault(mutated<PF>(good_pagefault(), [](PF& c) { --c[1].prefault_fills; })),
         true);
  expect("pagefault: kvm-ept (NST) below 1 L0 exit per fault",
         check_pagefault(mutated<PF>(good_pagefault(),
                                     [](PF& c) { c[0].l0_exits = c[0].guest_page_faults - 1; })),
         true);
  expect("pagefault: pvm (NST) slower than kvm-ept (NST)",
         check_pagefault(mutated<PF>(good_pagefault(), [](PF& c) { c[1].mean_vns = 1e7; })), true);
  expect("pagefault: pvm (NST) equal to pvm (NST-none)",
         check_pagefault(
             mutated<PF>(good_pagefault(), [](PF& c) { c[1].mean_vns = c[2].mean_vns; })),
         true);
  expect("pagefault: coherence violation reported",
         check_pagefault(mutated<PF>(good_pagefault(),
                                     [](PF& c) { c[2].coherence_violations = {"stale rmap"}; })),
         true);
  expect("pagefault: task left pending",
         check_pagefault(mutated<PF>(good_pagefault(), [](PF& c) { c[0].pending_tasks = 1; })),
         true);

  using AC = std::vector<AppCell>;
  expect("apps: consistent result", check_apps(good_apps()), false);
  for (std::size_t app = 0; app < 4; ++app) {
    const std::string name = "apps: kvm-ept (NST) not worse on " + good_apps()[2 * app].app;
    expect(name.c_str(),
           check_apps(mutated<AC>(good_apps(),
                                  [app](AC& c) {
                                    std::swap(c[2 * app].score, c[2 * app + 1].score);
                                  })),
           true);
  }
  expect("apps: a container failed to boot",
         check_apps(mutated<AC>(good_apps(), [](AC& c) { c[3].boots_failed = 1; })), true);

  const auto [bench_json, bench_runs] = good_bench();
  expect("bench doc: counters match", check_bench_doc(bench_json, bench_runs), false);
  auto off_by_one = bench_runs;
  off_by_one[0].second.add(pvm::Counter::kL0Exit);
  expect("bench doc: a counter off by one", check_bench_doc(bench_json, off_by_one), true);
  expect("bench doc: truncated document",
         check_bench_doc(bench_json.substr(0, bench_json.size() - 2), bench_runs), true);

  pvm::ts::TsDoc ts_doc;
  ts_doc.series["c/fleet/launches"].total = 3;
  ts_doc.series["c/fleet/launches"].windows[0] = 3;
  const std::string ts_json = pvm::ts::render_timeseries_json(ts_doc);
  expect("timeseries doc: round trip", check_timeseries_doc(ts_json), false);
  expect("timeseries doc: not JSON", check_timeseries_doc(ts_json + "}"), true);

  OpTotalsMap totals;
  const pvm::prof::ProfDoc profile = nested_profile(&totals);
  const std::string profile_json = pvm::prof::render_profile_json(profile);
  expect("profile doc: exclusive + nested ops sum to inclusive",
         check_profile_doc(profile_json, profile, totals), false);
  pvm::prof::ProfDoc broken = profile;
  broken.ops.begin()->second.paths.begin()->second.exclusive_ns += 1;
  expect("profile doc: broken sum of exclusive",
         check_profile_doc(pvm::prof::render_profile_json(broken), broken, totals), true);
  expect("profile doc: parses back to another profile",
         check_profile_doc(profile_json, broken, totals), true);
  OpTotalsMap short_totals = totals;
  short_totals.begin()->second.inclusive_ns -= 1;
  expect("profile doc: latency differs from the raw spans",
         check_profile_doc(profile_json, profile, short_totals), true);

  using FM = std::vector<FleetMode>;
  expect("fleet: consistent result", check_fleet(good_fleet()), false);
  expect("fleet: zero ept crashes",
         check_fleet(mutated<FM>(good_fleet(),
                                 [](FM& m) {
                                   m[0].completions += m[0].crashes;
                                   m[0].crashes = 0;
                                 })),
         true);
  expect("fleet: a pvm crash",
         check_fleet(mutated<FM>(good_fleet(),
                                 [](FM& m) {
                                   --m[1].completions;
                                   ++m[1].crashes;
                                 })),
         true);
  expect("fleet: launches != completions + crashes",
         check_fleet(mutated<FM>(good_fleet(), [](FM& m) { --m[0].completions; })), true);
  expect("fleet: node launches do not sum to the total",
         check_fleet(mutated<FM>(good_fleet(), [](FM& m) { --m[1].node_launches[0]; })), true);
  expect("fleet: p99 above p999",
         check_fleet(mutated<FM>(good_fleet(), [](FM& m) { m[1].latencies[0].p99 = 35; })), true);
  expect("fleet doc: counts match", check_fleet_doc(fleet_doc(good_fleet()), good_fleet()), false);
  expect("fleet doc: a rollup count differs",
         check_fleet_doc(fleet_doc(mutated<FM>(good_fleet(), [](FM& m) { ++m[0].crashes; })),
                         good_fleet()),
         true);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::run();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest: every check behaves"
                                                : "selftest: FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
