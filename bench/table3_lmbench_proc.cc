// Table 3: LMbench process-management latencies (us), 1 and 32 concurrent
// processes, across the five deployment scenarios.
//
// Paper shape: pvm tracks kvm-ept closely except fork/exec/sh (shadow
// teardown); kvm-spt collapses at 32 processes on fork-family ops; pvm (NST)
// beats kvm-ept (NST) everywhere except the fork family.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table3_lmbench_proc");
  print_header("Table 3: LMbench process latencies (us; smaller is better)",
               "PVM paper, Table 3", "#C = concurrent benchmark processes");

  const struct {
    const char* name;
    LmbenchOp op;
    int iters1;   // iterations at 1 process
    int iters32;  // iterations at 32 processes
  } kOps[] = {
      {"null I/O", LmbenchOp::kNullIo, 400, 50},
      {"stat", LmbenchOp::kStat, 400, 50},
      {"open/close", LmbenchOp::kOpenClose, 200, 30},
      {"slct TCP", LmbenchOp::kSelectTcp, 200, 30},
      {"sig inst", LmbenchOp::kSigInstall, 400, 50},
      {"sig hndl", LmbenchOp::kSigHandle, 200, 30},
      {"fork proc", LmbenchOp::kForkProc, 16, 6},
      {"exec proc", LmbenchOp::kExecProc, 12, 4},
      {"sh proc", LmbenchOp::kShProc, 8, 3},
      {"ctx switch", LmbenchOp::kCtxSwitch, 200, 30},
  };

  for (int processes : {1, 32}) {
    std::printf("--- #C = %d ---\n", processes);
    std::vector<std::string> header{"config"};
    for (const auto& op : kOps) {
      header.push_back(op.name);
    }
    TextTable table(std::move(header));
    for (const Scenario& scenario : five_scenarios()) {
      std::vector<std::string> row{scenario.label};
      for (const auto& op : kOps) {
        const int iters = processes == 1 ? op.iters1 : op.iters32;
        const std::string label = scenario.label + "/" + op.name + "/" +
                                  std::to_string(processes) + "p";
        row.push_back(TextTable::cell(bench::lmbench_concurrent_us(label, scenario.config, op.op,
                                                                   processes, iters, io)));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("Paper shape: pvm ~ kvm-ept except fork/exec/sh; kvm-spt worst on the\n");
  std::printf("fork family at 32 processes; pvm (NST) < kvm-ept (NST) elsewhere.\n");
  return 0;
}
