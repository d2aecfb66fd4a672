// Figure 12: fluidanimate at maximum container density (concurrency
// 50/100/150).
//
// Paper shape: under extreme oversubscription every deployment converges to
// similar times — except kvm-ept (NST), which *crashes*. Here the crash is
// *emergent*: the default "bootstorm" fault plan caps the L1 instances' GPA
// pools and jitters the L0 paths, and under that identical plan kvm-ept
// (NST) — whose L1 KVM cannot reclaim EPT12 backing it hands out — OOM-kills
// init processes during the boot storm, while pvm (NST) reclaims cold shadow
// pages and degrades gracefully (slower, but every container boots). A boot
// exceeding the RunD-style deadline still counts as a crash too. Run with
// `--faults none` for the fault-free baseline or `--faults <plan>` to swap
// plans.

#include <algorithm>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig12_highload");
  io.set_default_fault_plan("bootstorm");
  print_header("Figure 12: fluidanimate under high container density",
               "PVM paper, Fig. 12",
               ("kvm-ept (NST) crashed in the paper (RunD startup timeout);\n"
                "fault plan '" +
                io.fault_plan() +
                "' models the exhausted host (--faults none to disable)")
                   .c_str());

  TextTable table({"config", "50", "100", "150", "worst boot (s) @150"});
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    double worst_boot = 0;
    for (int containers : {50, 100, 150}) {
      const bench::HighLoadResult result =
          bench::high_load(scenario.label + "/" + std::to_string(containers) + "c",
                           scenario.config, containers, 0.25 * bench_scale(), io);
      row.push_back(result.crashed
                        ? (result.failed_boots > 0
                               ? "CRASH(" + std::to_string(result.failed_boots) + " oom)"
                               : "CRASH")
                        : TextTable::cell(result.mean_seconds, 3));
      worst_boot = std::max(worst_boot, result.worst_boot_seconds);
    }
    row.push_back(TextTable::cell(worst_boot, 3));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: all configs converge under oversubscription except\n");
  std::printf("kvm-ept (NST), whose sandbox startup times out (reported 'CRASH').\n");
  return 0;
}
