// Figure 11: real-world application performance under concurrency 1/4/16,
// five deployment scenarios: (a) Kbuild time, (b) Blogbench score,
// (c) SPECjbb throughput, (d) fluidanimate time.
//
// Paper shape: pvm tracks bare-metal everywhere; kvm-ept (NST) collapses at
// 16 containers (L0 becomes the bottleneck); pvm even beats kvm-ept (BM) on
// fluidanimate thanks to hypercall HLT.

#include "bench/bench_common.h"

namespace pvm {
namespace {

// Prints one panel: the five scenarios at 1, 4 and 16 containers, each cell
// `measure(label, config, run)`.
template <typename Measure>
void print_panel(const char* title, const char* unit, const char* app, bench::AppRun run,
                 Measure&& measure) {
  std::printf("--- %s (%s) ---\n", title, unit);
  TextTable table({"config", "1", "4", "16"});
  for (const Scenario& scenario : five_scenarios()) {
    std::vector<std::string> row{scenario.label};
    for (int containers : {1, 4, 16}) {
      run.containers = containers;
      const std::string label = std::string(app) + "/" + std::to_string(containers) + "c";
      row.push_back(TextTable::cell(measure(label, scenario.config, run), 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig11_apps");
  print_header("Figure 11: real-world applications at concurrency 1/4/16",
               "PVM paper, Fig. 11 (a)-(d)",
               "Workload sizes scaled down; cross-config ratios are the target");

  AppParams params;
  params.size = 0.5 * bench_scale();
  const auto seconds = [&](const bench::AppBody& body) {
    return [&io, body](const std::string& label, const PlatformConfig& config,
                       const bench::AppRun& run) {
      return bench::app_mean_seconds(label, config, run, body, io);
    };
  };
  const auto score = [&](const char* key, const bench::ScoredAppBody& body) {
    return [&io, key, body](const std::string& label, const PlatformConfig& config,
                            const bench::AppRun& run) {
      return bench::app_mean_score(label, config, run, body, key, io);
    };
  };
  bench::AppRun run;
  run.timer_hz = 1000;  // per-container scheduler tick
  print_panel("(a) Kbuild, avg exec time, lower is better", "s", "kbuild", run,
              seconds([&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
                return app_kbuild(c, vcpu, proc, params);
              }));
  print_panel("(b) Blogbench, avg score, higher is better", "ops/s", "blogbench", run,
              score("score", [&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
                return app_blogbench(c, vcpu, proc, params);
              }));
  print_panel("(c) SPECjbb2005, avg throughput, higher is better", "kbops", "specjbb", run,
              score("kbops", [&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
                return app_specjbb(c, vcpu, proc, params);
              }));
  run.init_pages = 32;
  print_panel("(d) fluidanimate, avg exec time, lower is better", "s", "fluidanimate", run,
              seconds([&](SecureContainer& c, Vcpu&, GuestProcess&) {
                return app_fluidanimate(c, params, /*threads=*/4, /*frames=*/16);
              }));

  std::printf("Paper shape: kvm-ept (NST) collapses at 16 containers in every panel;\n");
  std::printf("pvm (NST) stays near bare-metal; pvm beats kvm-ept (BM) on\n");
  std::printf("fluidanimate via hypercall HLT handling.\n");
  return 0;
}
