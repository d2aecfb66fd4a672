// §1/§5 memory-footprint analysis (beyond the paper's tables): per-container
// page-table memory by scheme. The paper notes VM-based isolation's
// "enlarged per-container memory footprint" (§1) and that PVM's dual shadow
// page tables are a cost it wants to reduce (§5); this bench quantifies both
// in table pages after an identical workload.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table5_memory_overhead");
  print_header("Table 5 (ours): page-table memory per container (4 KiB pages)",
               "PVM paper §1 footprint remark + §5 dual-SPT cost",
               "After 8 processes x 16 MiB resident each");

  TextTable table({"config", "guest tables", "shadow tables", "overhead vs EPT"});
  const auto bytes = static_cast<std::uint64_t>(bench_scale() * (16.0 * 1024 * 1024));
  std::uint64_t ept_total = 0;
  for (const Scenario& scenario : five_scenarios()) {
    const bench::PageTableFootprint footprint =
        bench::page_table_footprint(scenario.label, scenario.config, 8, bytes, io);
    const std::uint64_t total = footprint.guest_tables + footprint.shadow_tables;
    if (scenario.config.mode == DeployMode::kKvmEptBm) {
      ept_total = total;
    }
    table.add_row({scenario.label, TextTable::cell(footprint.guest_tables),
                   TextTable::cell(footprint.shadow_tables),
                   ept_total > 0
                       ? TextTable::cell(static_cast<double>(total) /
                                         static_cast<double>(ept_total)) +
                             "x"
                       : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: EPT schemes carry no shadow pages; PVM's dual SPT\n");
  std::printf("roughly doubles (user+kernel) the table memory plus the gpa_map —\n");
  std::printf("the overhead §5 proposes to reduce via collaborative construction.\n");
  return 0;
}
