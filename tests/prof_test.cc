// pvm::prof unit tests: the critical-path fold over hand-built recorder
// streams, lock-wait naming, cross-track migration attribution, the tail
// cohort, merge order-independence, render/parse round-trip identity, and
// the fold's agreement with the recorder's online aggregates on a real run.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/backends/platform.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

using obs::Phase;
using obs::SpanRecorder;

// Drives a SpanRecorder with a hand-cranked virtual clock and active root —
// the same binding Simulation::set_spans performs, minus the simulator.
struct Rig {
  std::uint64_t now = 0;
  std::int64_t root = 0;
  SpanRecorder rec;

  Rig() {
    rec.bind(&now, &root);
    rec.set_enabled(true);
  }

  SpanRecorder::Token begin(Phase phase) { return rec.begin(phase); }
  void end(SpanRecorder::Token token) { rec.end(token); }
};

const prof::OpProfile& only_op(const prof::ProfDoc& doc, const std::string& key) {
  const auto it = doc.ops.find(key);
  EXPECT_NE(it, doc.ops.end()) << "missing op " << key;
  static const prof::OpProfile empty;
  return it == doc.ops.end() ? empty : it->second;
}

TEST(ProfFold, DecomposesExclusiveTimePerPath) {
  Rig rig;
  // op.page_fault [0, 100): spt_fill [10, 70) with lock_wait [20, 50) inside.
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 10;
  auto fill = rig.begin(Phase::kSptFill);
  rig.now = 20;
  auto wait = rig.begin(Phase::kLockWait);
  rig.now = 50;
  rig.rec.end_lock_wait(wait, "mmu_lock");
  rig.now = 70;
  rig.end(fill);
  rig.now = 100;
  rig.end(op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  ASSERT_EQ(doc.ops.size(), 1u);
  const prof::OpProfile& pf = only_op(doc, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 1u);
  EXPECT_EQ(pf.latency.sum(), 100u);
  // Exclusive decomposition: 100 total = 40 root + 30 fill + 30 lock wait.
  EXPECT_EQ(pf.paths.at("op.page_fault").exclusive_ns, 40u);
  EXPECT_EQ(pf.paths.at("op.page_fault;spt_fill").exclusive_ns, 30u);
  EXPECT_EQ(pf.paths.at("op.page_fault;spt_fill;lock_wait:mmu_lock").exclusive_ns, 30u);
  std::uint64_t total = 0;
  for (const auto& [path, stat] : pf.paths) {
    total += stat.exclusive_ns;
  }
  EXPECT_EQ(total, 100u);  // no nanosecond lost or double-counted
  EXPECT_EQ(pf.worst_ns, 100u);
  EXPECT_EQ(pf.worst_begin_ns, 0u);
  EXPECT_EQ(pf.worst_track, 0);
}

TEST(ProfFold, NamesLockWaitsViaMirrorRecords) {
  Rig rig;
  auto op = rig.begin(Phase::kOpSyscall);
  rig.now = 5;
  auto wait_a = rig.begin(Phase::kLockWait);
  rig.now = 15;
  rig.rec.end_lock_wait(wait_a, "pt_lock");
  rig.now = 20;
  auto wait_b = rig.begin(Phase::kLockWait);
  rig.now = 21;
  rig.end(wait_b);  // anonymous wait: no mirror, keeps the bare phase name
  rig.now = 30;
  rig.end(op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.syscall");
  EXPECT_TRUE(pf.paths.contains("op.syscall;lock_wait:pt_lock"));
  EXPECT_TRUE(pf.paths.contains("op.syscall;lock_wait"));
  EXPECT_EQ(pf.paths.at("op.syscall;lock_wait:pt_lock").exclusive_ns, 10u);
}

TEST(ProfFold, RedirectsDirtyTrackingIntoOverlappingMigration) {
  Rig rig;
  // Track 0: op.migration [0, 1000). Track 1: one dirty_track span inside the
  // migration window and one after it; only the first is redirected.
  auto mig = rig.begin(Phase::kOpMigration);

  rig.root = 1;
  rig.now = 100;
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 150;
  auto dirty = rig.begin(Phase::kDirtyTrack);
  rig.now = 170;
  rig.end(dirty);
  rig.now = 200;
  rig.end(op);

  rig.root = 0;
  rig.now = 1000;
  rig.end(mig);

  rig.root = 1;
  rig.now = 1100;
  auto late_op = rig.begin(Phase::kOpPageFault);
  rig.now = 1150;
  auto late_dirty = rig.begin(Phase::kDirtyTrack);
  rig.now = 1180;
  rig.end(late_dirty);
  rig.now = 1200;
  rig.end(late_op);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& mig_pf = only_op(doc, "op.migration");
  const prof::OpProfile& fault_pf = only_op(doc, "op.page_fault");

  // The in-window dirty span (20 ns) moved to the migration op's profile...
  ASSERT_TRUE(mig_pf.paths.contains("op.migration;dirty_track"));
  EXPECT_EQ(mig_pf.paths.at("op.migration;dirty_track").exclusive_ns, 20u);
  // ...as paths only: the migration's latency histogram stays one instance.
  EXPECT_EQ(mig_pf.latency.count(), 1u);
  // The in-window fault no longer carries the dirty_track path; only the
  // out-of-window span's 30 ns remain under op.page_fault. Both instances'
  // latencies are untouched (100 ns each).
  ASSERT_TRUE(fault_pf.paths.contains("op.page_fault;dirty_track"));
  EXPECT_EQ(fault_pf.paths.at("op.page_fault;dirty_track").exclusive_ns, 30u);
  EXPECT_EQ(fault_pf.paths.at("op.page_fault;dirty_track").count, 1u);
  EXPECT_EQ(fault_pf.latency.count(), 2u);
  // The out-of-window dirty span stays charged to its own op.
  std::uint64_t fault_excl = 0;
  for (const auto& [path, stat] : fault_pf.paths) {
    fault_excl += stat.exclusive_ns;
  }
  // 2 faults x 100 ns, minus the 20 ns redirected to the migration.
  EXPECT_EQ(fault_excl, 180u);
}

TEST(ProfFold, TailCohortIsolatesSlowInstances) {
  Rig rig;
  // 100 fast ops (16 ns, pure root) and one slow op (1000 ns, all lock wait).
  // 16 ns lands in histogram bucket [16, 17], so the fold-time p99 threshold
  // (the bucket's upper bound, 17) strictly exceeds the fast latency — the
  // tail cohort is exactly the slow instance.
  for (int i = 0; i < 100; ++i) {
    auto op = rig.begin(Phase::kOpGptStore);
    rig.now += 16;
    rig.end(op);
  }
  auto slow = rig.begin(Phase::kOpGptStore);
  auto wait = rig.begin(Phase::kLockWait);
  rig.now += 1000;
  rig.rec.end_lock_wait(wait, "mmu_lock");
  rig.end(slow);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& pf = only_op(doc, "op.gpt_store");
  EXPECT_EQ(pf.latency.count(), 101u);
  EXPECT_GT(pf.tail_threshold_ns, 16u);
  // The tail cohort is the slow instance alone: all lock wait, no fast roots.
  ASSERT_TRUE(pf.tail_paths.contains("op.gpt_store;lock_wait:mmu_lock"));
  EXPECT_EQ(pf.tail_paths.at("op.gpt_store;lock_wait:mmu_lock").exclusive_ns, 1000u);
  const auto root_tail = pf.tail_paths.find("op.gpt_store");
  if (root_tail != pf.tail_paths.end()) {
    EXPECT_EQ(root_tail->second.exclusive_ns, 0u);
  }
  EXPECT_EQ(pf.worst_ns, 1000u);
}

TEST(ProfFold, FirstSpanOffsetFoldsOnlyTheIncrement) {
  Rig rig;
  auto op1 = rig.begin(Phase::kOpSyscall);
  rig.now = 10;
  rig.end(op1);
  const std::size_t cut = rig.rec.spans().size();

  rig.now = 20;
  auto op2 = rig.begin(Phase::kOpSyscall);
  rig.now = 50;
  rig.end(op2);

  const prof::ProfDoc inc_doc = prof::fold_profile(rig.rec, cut);
  const prof::OpProfile& inc = only_op(inc_doc, "op.syscall");
  EXPECT_EQ(inc.latency.count(), 1u);
  EXPECT_EQ(inc.latency.sum(), 30u);

  const prof::ProfDoc full_doc = prof::fold_profile(rig.rec);
  const prof::OpProfile& full = only_op(full_doc, "op.syscall");
  EXPECT_EQ(full.latency.count(), 2u);
}

// The fold rebuilds from raw records what the recorder aggregates online at
// close time, so on a complete run (every span closed, none dropped, no
// migration redirect) the two must agree per op kind: instance count and
// latency sum against op_latency(op), and the sum of path exclusive time
// against the op's row of the op-by-phase matrix.
void expect_fold_matches_recorder(const SpanRecorder& rec, const prof::ProfDoc& doc) {
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto op = static_cast<Phase>(i);
    if (!obs::phase_is_op(op)) {
      continue;
    }
    const LatencyHistogram& online = rec.op_latency(op);
    std::uint64_t matrix_ns = 0;
    for (std::size_t phase = 0; phase < obs::kPhaseCount; ++phase) {
      matrix_ns += rec.op_phase_ns(op, static_cast<Phase>(phase));
    }
    const auto it = doc.ops.find(obs::phase_name(op));
    if (it == doc.ops.end()) {
      EXPECT_EQ(online.count(), 0u) << obs::phase_name(op);
      EXPECT_EQ(matrix_ns, 0u) << obs::phase_name(op);
      continue;
    }
    const prof::OpProfile& profile = it->second;
    EXPECT_EQ(profile.latency.count(), online.count()) << obs::phase_name(op);
    EXPECT_EQ(profile.latency.sum(), online.sum()) << obs::phase_name(op);
    std::uint64_t path_ns = 0;
    for (const auto& [path, stat] : profile.paths) {
      path_ns += stat.exclusive_ns;
    }
    EXPECT_EQ(path_ns, matrix_ns) << obs::phase_name(op);
  }
}

TEST(ProfFold, MatchesRecorderAggregatesOnRealPvmRun) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SpanRecorder rec;
  rec.set_enabled(true);
  platform.sim().set_spans(&rec);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(16), "boot");
  platform.sim().run();

  MemStressParams params;
  params.total_bytes = 1ull << 20;
  params.chunk_bytes = 256ull << 10;
  run_processes_in_container(platform, container, /*process_count=*/8,
                             [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                               return memstress_process(container, vcpu, proc, params);
                             });
  ASSERT_EQ(rec.dropped_spans(), 0u);

  const prof::ProfDoc doc = prof::fold_profile(rec);
  // The run must exercise nested phases, named lock waits and several op
  // kinds for the comparison to mean something.
  ASSERT_TRUE(doc.ops.contains("op.page_fault"));
  ASSERT_TRUE(doc.ops.contains("op.boot"));
  bool named_wait = false;
  for (const auto& [path, stat] : doc.ops.at("op.page_fault").paths) {
    named_wait = named_wait || path.find(";lock_wait:") != std::string::npos;
  }
  EXPECT_TRUE(named_wait);
  EXPECT_FALSE(doc.ops.contains("op.migration"));
  expect_fold_matches_recorder(rec, doc);
}

TEST(ProfFold, PendingRootKeepsItsOwnOpButDropsUnattributedTime) {
  Rig rig;
  // op.syscall [0, ...) never closes. Inside it: a nested op.page_fault
  // [10, 40) with spt_fill [20, 30), then a bare spt_fill [50, 60).
  rig.rec.begin(Phase::kOpSyscall);
  rig.now = 10;
  auto fault = rig.begin(Phase::kOpPageFault);
  rig.now = 20;
  auto fill = rig.begin(Phase::kSptFill);
  rig.now = 30;
  rig.end(fill);
  rig.now = 40;
  rig.end(fault);
  rig.now = 50;
  auto bare = rig.begin(Phase::kSptFill);
  rig.now = 60;
  rig.end(bare);

  const prof::ProfDoc doc = prof::fold_profile(rig.rec);
  // The page fault's parent never closed, so it is a pending root: it still
  // folds as its own instance, and agrees with the recorder exactly.
  const prof::OpProfile& pf = only_op(doc, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 1u);
  EXPECT_EQ(pf.latency.sum(), 30u);
  EXPECT_EQ(pf.paths.at("op.page_fault").exclusive_ns, 20u);
  EXPECT_EQ(pf.paths.at("op.page_fault;spt_fill").exclusive_ns, 10u);
  EXPECT_EQ(rig.rec.op_latency(Phase::kOpPageFault).count(), 1u);
  EXPECT_EQ(rig.rec.op_phase_ns(Phase::kOpPageFault, Phase::kOpPageFault), 20u);
  EXPECT_EQ(rig.rec.op_phase_ns(Phase::kOpPageFault, Phase::kSptFill), 10u);
  // The one place the equality breaks: the bare spt_fill is a pending root
  // with no op above it in the raw stream (its op.syscall never closed, so
  // no record exists), and the fold has no instance to charge it to. The
  // recorder charged it online to the still-open op.syscall's matrix row,
  // which has no latency sample.
  EXPECT_FALSE(doc.ops.contains("op.syscall"));
  EXPECT_EQ(rig.rec.op_latency(Phase::kOpSyscall).count(), 0u);
  EXPECT_EQ(rig.rec.op_phase_ns(Phase::kOpSyscall, Phase::kSptFill), 10u);
}

prof::ProfDoc sample_doc(std::uint64_t scale) {
  Rig rig;
  auto op = rig.begin(Phase::kOpPageFault);
  rig.now = 10 * scale;
  auto fill = rig.begin(Phase::kEptFill);
  rig.now = 40 * scale;
  rig.end(fill);
  rig.now = 100 * scale;
  rig.end(op);
  return prof::fold_profile(rig.rec);
}

TEST(ProfDoc, MergeIsOrderIndependent) {
  const prof::ProfDoc a = sample_doc(1);
  const prof::ProfDoc b = sample_doc(7);

  prof::ProfDoc ab;
  ASSERT_TRUE(prof::merge_profile(&ab, a, nullptr));
  ASSERT_TRUE(prof::merge_profile(&ab, b, nullptr));
  prof::ProfDoc ba;
  ASSERT_TRUE(prof::merge_profile(&ba, b, nullptr));
  ASSERT_TRUE(prof::merge_profile(&ba, a, nullptr));

  EXPECT_EQ(prof::render_profile_json(ab), prof::render_profile_json(ba));
  const prof::OpProfile& pf = only_op(ab, "op.page_fault");
  EXPECT_EQ(pf.latency.count(), 2u);
  EXPECT_EQ(pf.worst_ns, 700u);
}

TEST(ProfDoc, PrefixNamespacesOpKeys) {
  const prof::ProfDoc doc = prof::prefix_profile(sample_doc(1), "pvm/32p/");
  EXPECT_EQ(doc.ops.size(), 1u);
  EXPECT_TRUE(doc.ops.contains("pvm/32p/op.page_fault"));
  // Paths inside the op keep their raw phase names — the op key carries the
  // coordinate, so collapsed stacks splice it over the path's first frame.
  EXPECT_TRUE(only_op(doc, "pvm/32p/op.page_fault").paths.contains("op.page_fault;ept_fill"));
}

TEST(ProfDoc, RenderParseRoundTripIsByteIdentical) {
  prof::ProfDoc doc = sample_doc(3);
  doc.dropped_spans = 5;
  const std::string first = prof::render_profile_json(doc);

  prof::ProfDoc parsed;
  std::string error;
  ASSERT_TRUE(prof::parse_profile_json(first, &parsed, &error)) << error;
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(prof::render_profile_json(parsed), first);
}

TEST(ProfDoc, ParseRejectsWrongSchema) {
  prof::ProfDoc parsed;
  std::string error;
  EXPECT_FALSE(prof::parse_profile_json("{\"schema\":\"pvm.bench.v1\"}", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ProfRender, CollapsedStacksSpliceOpKeyOverRootFrame) {
  const prof::ProfDoc doc = prof::prefix_profile(sample_doc(1), "pvm/1p/");
  const std::string stacks = prof::render_collapsed_stacks(doc);
  EXPECT_NE(stacks.find("pvm/1p/op.page_fault;ept_fill 30\n"), std::string::npos) << stacks;
  EXPECT_NE(stacks.find("pvm/1p/op.page_fault 70\n"), std::string::npos) << stacks;
}

TEST(ProfRender, BlameNamesDominantPhaseFirst) {
  const prof::ProfDoc doc = sample_doc(1);
  const std::string blame = prof::render_blame(doc, prof::BlameOptions{});
  // Root exclusive (70 ns) dominates ept_fill (30 ns): first path row is the
  // dominant critical-path phase.
  const auto root_pos = blame.find("op.page_fault\n");
  const auto fill_pos = blame.find("op.page_fault;ept_fill");
  ASSERT_NE(root_pos, std::string::npos) << blame;
  ASSERT_NE(fill_pos, std::string::npos) << blame;
  EXPECT_LT(root_pos, fill_pos);
}

}  // namespace
}  // namespace pvm
