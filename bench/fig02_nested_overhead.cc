// Figure 2: overhead analysis of nested virtualization — execution time of
// kvm (NST) normalized to kvm (BM).
//
// Paper shape: LMbench ops without intensive memory activity stay near 1x;
// fork/exec/sh grow; the 16-container concurrent workloads explode (kbuild
// ~5x, SPECjbb up to two orders of magnitude).

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig02_nested_overhead");
  print_header("Figure 2: kvm (NST) execution time normalized to kvm (BM)",
               "PVM paper, Fig. 2",
               "LMbench ops: 1 container; kbuild/specjbb: 16 containers");

  const struct {
    const char* name;
    LmbenchOp op;
    int iterations;
  } kOps[] = {
      {"null call", LmbenchOp::kNullIo, 200},   {"stat", LmbenchOp::kStat, 200},
      {"open/close", LmbenchOp::kOpenClose, 100}, {"slct tcp", LmbenchOp::kSelectTcp, 200},
      {"sig inst", LmbenchOp::kSigInstall, 200}, {"sig hndl", LmbenchOp::kSigHandle, 200},
      {"fork", LmbenchOp::kForkProc, 20},       {"exec", LmbenchOp::kExecProc, 20},
      {"sh", LmbenchOp::kShProc, 10},
  };

  PlatformConfig bm_config;
  bm_config.mode = DeployMode::kKvmEptBm;
  PlatformConfig nst_config;
  nst_config.mode = DeployMode::kKvmEptNst;

  TextTable table({"benchmark", "kvm (BM)", "kvm (NST)", "normalized"});
  for (const auto& op : kOps) {
    const auto latency_ns = [&](const char* suffix, const PlatformConfig& config) {
      return bench::lmbench_latency_ns(std::string(op.name) + suffix, config, op.op,
                                       op.iterations, /*boot_pages=*/256, "latency_us", io);
    };
    const std::uint64_t bm = latency_ns("/bm", bm_config);
    const std::uint64_t nst = latency_ns("/nst", nst_config);
    table.add_row({op.name, TextTable::cell(to_us(bm)) + " us",
                   TextTable::cell(to_us(nst)) + " us",
                   TextTable::cell(static_cast<double>(nst) / static_cast<double>(bm))});
  }

  AppParams params;
  params.size = 0.5 * bench_scale();
  bench::AppRun run;
  run.containers = 16;
  const auto add_app_row = [&](const std::string& name, const bench::AppBody& body) {
    const double bm = bench::app_mean_seconds(name + "/bm", bm_config, run, body, io);
    const double nst = bench::app_mean_seconds(name + "/nst", nst_config, run, body, io);
    table.add_row({name + " (16c)", TextTable::cell(bm) + " s", TextTable::cell(nst) + " s",
                   TextTable::cell(nst / bm)});
  };
  add_app_row("kbuild", [&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
    return app_kbuild(c, vcpu, proc, params);
  });
  // Timed like kbuild: the task time, not SPECjbb's own score.
  add_app_row("specjbb", [&](SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) {
    return [](SecureContainer& cc, Vcpu& v, GuestProcess& p, AppParams ap) -> Task<void> {
      (void)co_await app_specjbb(cc, v, p, ap);
    }(c, vcpu, proc, params);
  });

  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: plain syscall ops near 1x; fork/exec/sh above 1x;\n");
  std::printf("concurrent kbuild ~5x and specjbb orders of magnitude worse.\n");
  return 0;
}
