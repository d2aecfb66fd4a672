// §2.2 / §3.3.2 world-switch unit costs.
//
// Paper measurements: single-level world switch ~0.105 us, PVM switcher
// switch ~0.179 us, nested (EPT-on-EPT) L2-to-L1 switch ~1.3 us ("an order
// of magnitude more expensive").
//

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table0_switch_cost");
  print_header("Table 0: world-switch unit costs (us per switch)",
               "PVM paper, §2.2 & §3.3.2 text measurements",
               "Paper: single-level 0.105, PVM switcher 0.179, nested 1.3");

  const PlatformConfig config;
  TextTable table({"switch type", "measured (us)", "paper (us)"});
  table.add_row({"single-level (VMX exit/entry)",
                 TextTable::cell(bench::switch_single_level_us(config, io)), "0.105"});
  table.add_row({"PVM switcher (within L1)", TextTable::cell(bench::switch_pvm_us(config, io)),
                 "0.179"});
  table.add_row({"nested L2<->L1 (via L0)",
                 TextTable::cell(bench::switch_nested_us(config, io)), "1.3"});
  std::printf("%s\n", table.render().c_str());
  return 0;
}
