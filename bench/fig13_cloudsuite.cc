// Figure 13: CloudSuite workloads (data / graph / in-memory analytics),
// normalized performance (kvm-ept (BM) = 1.0, higher is better).
//
// Paper shape: pvm within a few percent of bare metal on all three;
// kvm-ept (NST) visibly below 1.0, worst for the memory-heavy workloads.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig13_cloudsuite");
  print_header("Figure 13: CloudSuite workloads, normalized performance",
               "PVM paper, Fig. 13",
               "kvm-ept (BM) = 1.0; higher is better (time ratio inverted)");

  const struct {
    const char* name;
    CloudSuiteKind kind;
  } kKinds[] = {
      {"data analytics", CloudSuiteKind::kDataAnalytics},
      {"graph analytics", CloudSuiteKind::kGraphAnalytics},
      {"in-memory analytics", CloudSuiteKind::kInMemoryAnalytics},
  };
  AppParams params;
  params.size = 0.5 * bench_scale();
  bench::AppRun run;
  run.containers = 4;  // "relatively low concurrency level"
  run.init_pages = 64;

  TextTable table(
      {"config", "data analytics", "graph analytics", "in-memory analytics"});
  const auto seconds = [&](const std::string& label, const PlatformConfig& config,
                           CloudSuiteKind kind) {
    return bench::app_mean_seconds(
        label, config, run,
        [&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
          return app_cloudsuite(c, vcpu, proc, kind, params);
        },
        io);
  };
  std::vector<double> baseline;
  for (const auto& kind : kKinds) {
    PlatformConfig config;
    config.mode = DeployMode::kKvmEptBm;
    baseline.push_back(seconds(std::string("baseline/") + kind.name, config, kind.kind));
  }
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    for (std::size_t i = 0; i < std::size(kKinds); ++i) {
      row.push_back(TextTable::cell(
          baseline[i] / seconds(scenario.label + "/" + kKinds[i].name, scenario.config,
                                kKinds[i].kind),
          3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: pvm close to bare metal; kvm-ept (NST) clearly below.\n");
  return 0;
}
