#include "perfbench/checks.h"

#include <algorithm>
#include <cstdio>

#include "src/obs/json_parse.h"
#include "src/obs/ts.h"

namespace perfbench {
namespace {

std::string fmt(const char* format, double a, double b = 0) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

const PagefaultCell* find_cell(const std::vector<PagefaultCell>& cells, const char* label) {
  for (const PagefaultCell& cell : cells) {
    if (cell.label == label) {
      return &cell;
    }
  }
  return nullptr;
}

}  // namespace

Violations check_pagefault(const std::vector<PagefaultCell>& cells) {
  Violations out;
  const PagefaultCell* ept = find_cell(cells, kEptNst);
  const PagefaultCell* pvm = find_cell(cells, kPvmNst);
  const PagefaultCell* none = find_cell(cells, kPvmNstNone);
  if (ept == nullptr || pvm == nullptr || none == nullptr) {
    out.push_back({"pagefault", "missing one of the three deploy modes"});
    return out;
  }
  for (const PagefaultCell& cell : cells) {
    const double touched_pages = static_cast<double>(cell.processes) *
                                 static_cast<double>(cell.bytes_per_process) / 4096.0;
    if (static_cast<double>(cell.guest_page_faults) < touched_pages) {
      out.push_back({cell.label, fmt("guest page faults %.0f < touched pages %.0f",
                                     static_cast<double>(cell.guest_page_faults),
                                     touched_pages)});
    }
    if (cell.guest_page_faults != ept->guest_page_faults) {
      out.push_back({cell.label, fmt("guest page faults %.0f differ from kvm-ept (NST) %.0f",
                                     static_cast<double>(cell.guest_page_faults),
                                     static_cast<double>(ept->guest_page_faults))});
    }
    if (cell.pending_tasks != 0) {
      out.push_back({cell.label, fmt("%.0f task(s) pending after run()",
                                     static_cast<double>(cell.pending_tasks))});
    }
    for (const std::string& violation : cell.coherence_violations) {
      out.push_back({cell.label, "coherence: " + violation});
    }
  }
  if (!pvm->has_shadow_engine || !none->has_shadow_engine) {
    out.push_back({kPvmNst, "pvm modes must expose a shadow engine to check"});
  }
  const double faults = static_cast<double>(pvm->guest_page_faults);
  const double pvm_exits = faults > 0 ? static_cast<double>(pvm->l0_exits) / faults : 1e9;
  if (!(pvm_exits < 0.01)) {
    out.push_back({kPvmNst, fmt("%.4f L0 exits per fault, want < 0.01", pvm_exits)});
  }
  if (pvm->spt_fills == 0 || pvm->prefault_fills != pvm->spt_fills) {
    out.push_back({kPvmNst, fmt("prefault coverage %.0f/%.0f fills, want 1.0",
                                static_cast<double>(pvm->prefault_fills),
                                static_cast<double>(pvm->spt_fills))});
  }
  const double ept_faults = static_cast<double>(ept->guest_page_faults);
  const double ept_exits = ept_faults > 0 ? static_cast<double>(ept->l0_exits) / ept_faults : 0;
  if (!(ept_exits >= 1.0)) {
    out.push_back({kEptNst, fmt("%.4f L0 exits per fault, want >= 1", ept_exits)});
  }
  if (!(pvm->mean_vns < ept->mean_vns)) {
    out.push_back({kPvmNst, fmt("mean virtual time %.0f ns not below kvm-ept (NST) %.0f ns",
                                pvm->mean_vns, ept->mean_vns)});
  }
  if (!(pvm->mean_vns < none->mean_vns)) {
    out.push_back({kPvmNst, fmt("mean virtual time %.0f ns not below pvm (NST-none) %.0f ns",
                                pvm->mean_vns, none->mean_vns)});
  }
  return out;
}

Violations check_apps(const std::vector<AppCell>& cells) {
  Violations out;
  std::map<std::string, const AppCell*> ept;
  std::map<std::string, const AppCell*> pvm;
  for (const AppCell& cell : cells) {
    const std::string label = cell.mode + "/" + cell.app;
    if (cell.pending_tasks != 0) {
      out.push_back({label, fmt("%.0f task(s) pending after run()",
                                static_cast<double>(cell.pending_tasks))});
    }
    if (cell.boots_failed != 0) {
      out.push_back({label, fmt("%.0f container boot(s) failed", cell.boots_failed)});
    }
    if (!(cell.score > 0)) {
      out.push_back({label, fmt("result %.6g is not positive", cell.score)});
    }
    (cell.mode == kEptNst ? ept : pvm)[cell.app] = &cell;
  }
  for (const char* app : {"kbuild", "blogbench", "specjbb", "fluidanimate"}) {
    const auto e = ept.find(app);
    const auto p = pvm.find(app);
    if (e == ept.end() || p == pvm.end()) {
      out.push_back({app, "missing a deploy mode"});
      continue;
    }
    const double ept_score = e->second->score;
    const double pvm_score = p->second->score;
    const bool ept_worse = e->second->higher_is_better ? ept_score < pvm_score
                                                       : ept_score > pvm_score;
    if (!ept_worse) {
      out.push_back({std::string(kEptNst) + "/" + app,
                     fmt("kvm-ept (NST) %.6g is not worse than pvm (NST) %.6g", ept_score,
                         pvm_score)});
    }
  }
  return out;
}

Violations check_bench_doc(const std::string& json,
                           const std::vector<std::pair<std::string, pvm::CounterSet>>& runs) {
  Violations out;
  pvm::obs::JsonValue doc;
  std::string error;
  if (!pvm::obs::json_parse(json, &doc, &error)) {
    out.push_back({"pvm.bench.v1", "does not parse: " + error});
    return out;
  }
  const pvm::obs::JsonValue* array = doc.find("runs");
  if (array == nullptr || !array->is_array() || array->array.size() != runs.size()) {
    out.push_back({"pvm.bench.v1", "runs array missing or of the wrong length"});
    return out;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [label, counters] = runs[i];
    const pvm::obs::JsonValue& run = array->array[i];
    const pvm::obs::JsonValue* run_label = run.find("label");
    const pvm::obs::JsonValue* parsed = run.find("counters");
    if (run_label == nullptr || run_label->string != label || parsed == nullptr ||
        !parsed->is_object()) {
      out.push_back({label, "pvm.bench.v1 run missing or mislabelled"});
      continue;
    }
    for (std::size_t c = 0; c < pvm::kCounterCount; ++c) {
      const auto counter = static_cast<pvm::Counter>(c);
      const pvm::obs::JsonValue* value = parsed->find(pvm::counter_name(counter));
      const double exported = value == nullptr ? 0.0 : value->number;
      const auto direct = static_cast<double>(counters.get(counter));
      if (exported != direct) {
        out.push_back({label, "pvm.bench.v1 counter " + std::string(pvm::counter_name(counter)) +
                                  fmt(" = %.0f, CounterSet reads %.0f", exported, direct)});
      }
    }
  }
  return out;
}

Violations check_timeseries_doc(const std::string& json) {
  Violations out;
  pvm::obs::JsonValue generic;
  std::string error;
  if (!pvm::obs::json_parse(json, &generic, &error)) {
    out.push_back({"pvm.timeseries.v1", "does not parse: " + error});
    return out;
  }
  pvm::ts::TsDoc doc;
  if (!pvm::ts::parse_timeseries_json(json, &doc, &error)) {
    out.push_back({"pvm.timeseries.v1", "typed reader rejects it: " + error});
    return out;
  }
  if (pvm::ts::render_timeseries_json(doc) != json) {
    out.push_back({"pvm.timeseries.v1", "does not re-render to the same bytes"});
  }
  return out;
}

void add_op_totals(const std::vector<pvm::obs::SpanRecord>& spans, const std::string& prefix,
                   OpTotalsMap* totals) {
  // Open order per track: by begin time, parents (smaller depth) first. A
  // span at depth d nests in the latest span opened at depth d - 1; its
  // nearest enclosing op is inherited down the chain.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].track < pvm::obs::SpanRecorder::kLockTrackBase) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const pvm::obs::SpanRecord& x = spans[a];
    const pvm::obs::SpanRecord& y = spans[b];
    if (x.track != y.track) {
      return x.track < y.track;
    }
    return x.begin_ns != y.begin_ns ? x.begin_ns < y.begin_ns : x.depth < y.depth;
  });
  std::int64_t track = 0;
  std::vector<const pvm::obs::SpanRecord*> enclosing_op;  // per depth
  for (const std::size_t i : order) {
    const pvm::obs::SpanRecord& span = spans[i];
    if (enclosing_op.empty() || span.track != track) {
      track = span.track;
      enclosing_op.clear();
    }
    enclosing_op.resize(span.depth + 1, nullptr);
    const pvm::obs::SpanRecord* outer = span.depth == 0 ? nullptr : enclosing_op[span.depth - 1];
    enclosing_op[span.depth] = outer;
    if (!pvm::obs::phase_is_op(span.phase)) {
      continue;
    }
    const std::uint64_t inclusive = span.end_ns - span.begin_ns;
    OpTotals& mine = (*totals)[prefix + std::string(pvm::obs::phase_name(span.phase))];
    ++mine.count;
    mine.inclusive_ns += inclusive;
    if (outer != nullptr) {
      (*totals)[prefix + std::string(pvm::obs::phase_name(outer->phase))].nested_op_ns += inclusive;
    }
    enclosing_op[span.depth] = &span;
  }
}

Violations check_profile_doc(const std::string& json, const pvm::prof::ProfDoc& doc,
                             const OpTotalsMap& totals) {
  Violations out;
  pvm::obs::JsonValue generic;
  std::string error;
  if (!pvm::obs::json_parse(json, &generic, &error)) {
    out.push_back({"pvm.profile.v1", "does not parse: " + error});
    return out;
  }
  pvm::prof::ProfDoc parsed;
  if (!pvm::prof::parse_profile_json(json, &parsed, &error)) {
    out.push_back({"pvm.profile.v1", "typed reader rejects it: " + error});
    return out;
  }
  if (!(parsed == doc)) {
    out.push_back({"pvm.profile.v1", "parses back to a different profile"});
  }
  if (doc.ops.size() != totals.size()) {
    out.push_back({"pvm.profile.v1", fmt("%.0f ops, the raw spans hold %.0f",
                                         static_cast<double>(doc.ops.size()),
                                         static_cast<double>(totals.size()))});
  }
  for (const auto& [name, op] : doc.ops) {
    const auto it = totals.find(name);
    const OpTotals expected = it == totals.end() ? OpTotals{} : it->second;
    if (op.latency.count() != expected.count || op.latency.sum() != expected.inclusive_ns) {
      out.push_back({name, fmt("latency sum %.0f ns, the raw spans hold %.0f ns",
                               static_cast<double>(op.latency.sum()),
                               static_cast<double>(expected.inclusive_ns))});
    }
    std::uint64_t exclusive = 0;
    for (const auto& [path, stat] : op.paths) {
      exclusive += stat.exclusive_ns;
    }
    if (exclusive + expected.nested_op_ns != op.latency.sum()) {
      out.push_back({name, fmt("sum of exclusive %.0f ns + nested ops != root inclusive %.0f ns",
                               static_cast<double>(exclusive),
                               static_cast<double>(op.latency.sum()))});
    }
  }
  return out;
}

Violations check_fleet(const std::vector<FleetMode>& modes) {
  Violations out;
  bool saw_ept = false;
  bool saw_pvm = false;
  for (const FleetMode& mode : modes) {
    if (mode.launches != mode.completions + mode.crashes) {
      out.push_back({mode.mode, fmt("launches %.0f != completions + crashes %.0f",
                                    static_cast<double>(mode.launches),
                                    static_cast<double>(mode.completions + mode.crashes))});
    }
    std::uint64_t node_sum = 0;
    for (const std::uint64_t n : mode.node_launches) {
      node_sum += n;
    }
    if (node_sum != mode.expected_launches || mode.launches != mode.expected_launches) {
      out.push_back({mode.mode, fmt("node launches sum to %.0f, fleet total %.0f",
                                    static_cast<double>(node_sum),
                                    static_cast<double>(mode.expected_launches))});
    }
    if (mode.nodes_failed != 0) {
      out.push_back(
          {mode.mode, fmt("%.0f node(s) failed", static_cast<double>(mode.nodes_failed))});
    }
    for (const FleetQuantiles& q : mode.latencies) {
      if (!(q.p50 <= q.p99 && q.p99 <= q.p999 && q.p999 <= q.max)) {
        out.push_back({mode.mode, q.name + " quantiles out of order"});
      }
    }
    if (mode.mode == "pvm") {
      saw_pvm = true;
      if (mode.crashes != 0) {
        out.push_back({mode.mode, fmt("%.0f crashes, want 0", static_cast<double>(mode.crashes))});
      }
    } else if (mode.mode == "ept") {
      saw_ept = true;
      if (mode.crashes == 0) {
        out.push_back({mode.mode, "0 crashes: the modelled Fig. 12 collapse is missing"});
      }
    }
  }
  if (!saw_ept || !saw_pvm) {
    out.push_back({"fleet", "missing the ept or the pvm mode"});
  }
  return out;
}

Violations check_fleet_doc(const std::string& json, const std::vector<FleetMode>& modes) {
  Violations out;
  pvm::obs::JsonValue doc;
  std::string error;
  if (!pvm::obs::json_parse(json, &doc, &error)) {
    out.push_back({"pvm.fleet.v1", "does not parse: " + error});
    return out;
  }
  const pvm::obs::JsonValue* groups = doc.find("groups");
  if (groups == nullptr || !groups->is_array() || groups->array.size() != modes.size()) {
    out.push_back({"pvm.fleet.v1", "groups array missing or of the wrong length"});
    return out;
  }
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const pvm::obs::JsonValue* rollup = groups->array[i].find("rollup");
    const pvm::obs::JsonValue* counts = rollup == nullptr ? nullptr : rollup->find("counts");
    if (counts == nullptr) {
      out.push_back({modes[i].mode, "pvm.fleet.v1 group has no rollup counts"});
      continue;
    }
    const std::pair<const char*, std::uint64_t> expected[] = {
        {"fleet/launches", modes[i].launches},
        {"fleet/completions", modes[i].completions},
        {"fleet/crashes", modes[i].crashes}};
    for (const auto& [name, value] : expected) {
      const pvm::obs::JsonValue* parsed = counts->find(name);
      if (parsed == nullptr || parsed->number != static_cast<double>(value)) {
        out.push_back({modes[i].mode, "pvm.fleet.v1 rollup " + std::string(name) +
                                          " differs from the node documents"});
      }
    }
  }
  return out;
}

}  // namespace perfbench
