#include "src/obs/prof.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/json_parse.h"
#include "src/obs/span.h"

namespace pvm::prof {

namespace {

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<std::size_t>(n) < sizeof(buf)
                         ? static_cast<std::size_t>(n)
                         : sizeof(buf) - 1);
  }
}

std::string format_ns(std::uint64_t ns) {
  std::string out;
  if (ns < 1000) {
    appendf(&out, "%lluns", static_cast<unsigned long long>(ns));
  } else if (ns < 1000 * 1000) {
    appendf(&out, "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 1000ull * 1000 * 1000) {
    appendf(&out, "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    appendf(&out, "%.3fs", static_cast<double>(ns) / 1e9);
  }
  return out;
}

std::uint64_t as_u64(const obs::JsonValue& v) {
  return v.number < 0 ? 0 : static_cast<std::uint64_t>(v.number);
}

std::int64_t as_i64(const obs::JsonValue& v) { return static_cast<std::int64_t>(v.number); }

constexpr std::uint32_t kNone = ~std::uint32_t{0};

// One reconstructed span-tree node. Its children are the flat range
// [first_child, first_child + child_count) of Fold::children, in
// chronological (open-order) sequence.
struct Node {
  obs::TimeNs begin = 0;
  obs::TimeNs end = 0;
  std::int64_t track = -1;
  obs::Phase phase = obs::Phase::kCount;
  // Path component: the phase index, or kPhaseCount + lock index for a
  // lock-wait span whose (non-empty) resource name the lock-track mirror
  // resolved.
  std::uint32_t component = 0;
  std::uint32_t first_child = 0;
  std::uint32_t child_count = 0;

  std::uint64_t total() const { return end - begin; }
};

// The "worse worst-instance" total order used on merge: larger latency wins;
// ties prefer the earlier begin, then the smaller track. Total, so merging
// shards in any order keeps the same survivor.
bool worst_worse(const OpProfile& a, const OpProfile& b) {
  if (a.worst_ns != b.worst_ns) {
    return a.worst_ns > b.worst_ns;
  }
  if (a.worst_begin_ns != b.worst_begin_ns) {
    return a.worst_begin_ns < b.worst_begin_ns;
  }
  return a.worst_track < b.worst_track;
}

// State of the fold: the node arena, the interned path trie, migration-op
// intervals for cross-track attribution, and the flat contribution log.
//
// A path id names one phase path ("op.page_fault;spt_fill;lock_wait:x"); id
// 0 is the empty path above every op root. A path's string is built once,
// when the id is created, so the per-span work is integer-only.
struct Fold {
  std::vector<Node> nodes;
  std::vector<std::uint32_t> children;
  // [begin, end) of every kOpMigration span, any track.
  std::vector<std::pair<obs::TimeNs, obs::TimeNs>> migration_intervals;

  // Lock index -> resource name (component kPhaseCount + index).
  std::vector<std::string_view> lock_names;
  // Path trie: per path, the child id for each phase component (kNone when
  // absent); lock components, unbounded in number, go through a hash map
  // keyed by (parent << 32 | component).
  std::vector<std::uint32_t> phase_child;
  std::unordered_map<std::uint64_t, std::uint32_t> lock_child;
  std::vector<std::string> path_names{std::string()};
  // The op whose profile a path belongs to: its root component.
  std::vector<obs::Phase> path_op{obs::Phase::kCount};

  struct Instance {
    obs::Phase op = obs::Phase::kCount;
    std::uint64_t latency = 0;
    obs::TimeNs begin = 0;
    std::int64_t track = -1;
  };
  // Op instances in open order; close_order lists each op kind's instances
  // in close order (deterministic), which the worst-instance tie-break uses.
  std::vector<Instance> instances;
  std::array<std::vector<std::uint32_t>, obs::kPhaseCount> close_order;
  struct Contribution {
    std::uint32_t instance;  // kNone: cross-track redirect, paths only
    std::uint32_t path;
    std::uint64_t exclusive_ns;
  };
  std::vector<Contribution> contributions;

  Fold() : phase_child(obs::kPhaseCount, kNone) {}

  bool in_migration_interval(obs::TimeNs t) const {
    for (const auto& [begin, end] : migration_intervals) {
      if (t >= begin && t < end) {
        return true;
      }
    }
    return false;
  }

  std::uint64_t exclusive_ns(const Node& node) const {
    std::uint64_t child_ns = 0;
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      child_ns += nodes[children[node.first_child + i]].total();
    }
    const std::uint64_t total = node.total();
    return total > child_ns ? total - child_ns : 0;
  }

  // The path id of `parent` extended by `component`, created on first use.
  std::uint32_t child_path(std::uint32_t parent, std::uint32_t component) {
    std::uint32_t* slot = nullptr;
    if (component < obs::kPhaseCount) {
      slot = &phase_child[std::size_t{parent} * obs::kPhaseCount + component];
    } else {
      slot = &lock_child.try_emplace((std::uint64_t{parent} << 32) | component, kNone)
                  .first->second;
    }
    if (*slot != kNone) {
      return *slot;
    }
    const auto id = static_cast<std::uint32_t>(path_names.size());
    *slot = id;  // before the resize below invalidates `slot`
    std::string name = parent == 0 ? std::string() : path_names[parent] + ";";
    if (component < obs::kPhaseCount) {
      name += obs::phase_name(static_cast<obs::Phase>(component));
    } else {
      name += "lock_wait:";
      name += lock_names[component - obs::kPhaseCount];
    }
    path_names.push_back(std::move(name));
    path_op.push_back(parent == 0 ? static_cast<obs::Phase>(component) : path_op[parent]);
    phase_child.resize(phase_child.size() + obs::kPhaseCount, kNone);
    return id;
  }

  // Charges `node`'s subtree to the migration op under `path`
  // ("op.migration;dirty_track;..." — the cross-track redirect).
  void redirect_subtree(std::uint32_t index, std::uint32_t path) {
    const Node& node = nodes[index];
    contributions.push_back(Contribution{kNone, path, exclusive_ns(node)});
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      const std::uint32_t child = children[node.first_child + i];
      redirect_subtree(child, child_path(path, nodes[child].component));
    }
  }

  // Walks `node` with the nearest enclosing op instance (kNone if none).
  // `path` is the instance-relative phase path id.
  void visit(std::uint32_t index, std::uint32_t instance, bool op_is_migration,
             std::uint32_t path) {
    const Node& node = nodes[index];
    // A dirty-tracking span paid by a non-migration track while a migration
    // op is in flight is the migration's cost: redirect the whole subtree.
    if (node.phase == obs::Phase::kDirtyTrack && !op_is_migration &&
        in_migration_interval(node.begin)) {
      const std::uint32_t migration =
          child_path(0, static_cast<std::uint32_t>(obs::Phase::kOpMigration));
      redirect_subtree(index, child_path(migration, node.component));
      return;
    }
    const bool is_op = obs::phase_is_op(node.phase);
    if (is_op) {
      // A new op instance: path restarts at the op root.
      instance = static_cast<std::uint32_t>(instances.size());
      instances.push_back(Instance{node.phase, node.total(), node.begin, node.track});
      path = child_path(0, node.component);
      op_is_migration = node.phase == obs::Phase::kOpMigration;
    } else if (instance != kNone) {
      path = child_path(path, node.component);
    }
    for (std::uint32_t i = 0; i < node.child_count; ++i) {
      visit(children[node.first_child + i], instance, op_is_migration, path);
    }
    if (instance != kNone) {
      contributions.push_back(Contribution{instance, path, exclusive_ns(node)});
    }
    if (is_op) {
      close_order[static_cast<std::size_t>(node.phase)].push_back(instance);
    }
  }
};

}  // namespace

ProfDoc fold_profile(const obs::SpanRecorder& recorder, std::size_t first_span) {
  ProfDoc doc;
  doc.dropped_spans = recorder.dropped_spans();
  const std::vector<obs::SpanRecord>& records = recorder.spans();
  if (first_span >= records.size()) {
    return doc;
  }

  Fold fold;
  // Lock tracks are kLockTrackBase + index; index the names so a lock-track
  // mirror record resolves to its resource name.
  for (const auto& [name, track] : recorder.lock_tracks()) {
    const auto index = static_cast<std::size_t>(track - obs::SpanRecorder::kLockTrackBase);
    if (index >= fold.lock_names.size()) {
      fold.lock_names.resize(index + 1);
    }
    fold.lock_names[index] = name;
  }

  // Rebuild one tree forest per main track from the close-ordered record
  // stream: a record at depth d adopts the trailing pending subtrees at depth
  // d+1 that began after it (they closed earlier and nest inside it).
  // pending[track + 1] holds a track's completed roots-so-far.
  std::vector<std::vector<std::uint32_t>> pending;
  std::vector<std::uint32_t> roots;  // depth-0 nodes, close order
  fold.nodes.reserve(records.size() - first_span);
  fold.children.reserve(records.size() - first_span);
  for (std::size_t i = first_span; i < records.size(); ++i) {
    const obs::SpanRecord& record = records[i];
    if (record.track >= obs::SpanRecorder::kLockTrackBase) {
      continue;  // lock-track mirror; consumed via adjacency below
    }
    Node node;
    node.begin = record.begin_ns;
    node.end = record.end_ns;
    node.track = record.track;
    node.phase = record.phase;
    node.component = static_cast<std::uint32_t>(record.phase);
    if (record.phase == obs::Phase::kLockWait && i + 1 < records.size() &&
        records[i + 1].track >= obs::SpanRecorder::kLockTrackBase &&
        records[i + 1].begin_ns == record.begin_ns &&
        records[i + 1].end_ns == record.end_ns) {
      const auto lock =
          static_cast<std::size_t>(records[i + 1].track - obs::SpanRecorder::kLockTrackBase);
      if (lock < fold.lock_names.size() && !fold.lock_names[lock].empty()) {
        node.component = static_cast<std::uint32_t>(obs::kPhaseCount + lock);
      }
    }
    // Main tracks are root-task indices, -1 for work outside any root.
    const auto lane = static_cast<std::size_t>(std::max<std::int64_t>(record.track, -1) + 1);
    if (lane >= pending.size()) {
      pending.resize(lane + 1);
    }
    std::vector<std::uint32_t>& stack = pending[lane];
    std::size_t adopted = 0;
    while (adopted < stack.size() &&
           fold.nodes[stack[stack.size() - 1 - adopted]].begin >= record.begin_ns) {
      ++adopted;
    }
    // The adopted tail is in close order = reverse chronological open order.
    node.first_child = static_cast<std::uint32_t>(fold.children.size());
    node.child_count = static_cast<std::uint32_t>(adopted);
    fold.children.insert(fold.children.end(), stack.rbegin(),
                         stack.rbegin() + static_cast<std::ptrdiff_t>(adopted));
    stack.resize(stack.size() - adopted);
    const auto index = static_cast<std::uint32_t>(fold.nodes.size());
    fold.nodes.push_back(node);
    if (record.depth == 0) {
      roots.push_back(index);
    } else {
      stack.push_back(index);
    }
    if (record.phase == obs::Phase::kOpMigration) {
      fold.migration_intervals.emplace_back(record.begin_ns, record.end_ns);
    }
  }
  // Spans still pending at depth > 0 have no enclosing record (their parent
  // never closed); treat them as roots, in ascending track order, so their
  // time is not lost.
  for (const std::vector<std::uint32_t>& stack : pending) {
    roots.insert(roots.end(), stack.begin(), stack.end());
  }

  for (std::uint32_t root : roots) {
    fold.visit(root, /*instance=*/kNone, /*op_is_migration=*/false, /*path=*/0);
  }

  // Per op kind: the latency histogram and worst instance over close order,
  // then the tail cohort cut at this fold's bucketed p99.
  std::array<OpProfile*, obs::kPhaseCount> profiles{};
  for (std::size_t op = 0; op < obs::kPhaseCount; ++op) {
    if (fold.close_order[op].empty()) {
      continue;
    }
    OpProfile& profile = doc.ops[std::string(obs::phase_name(static_cast<obs::Phase>(op)))];
    profiles[op] = &profile;
    for (std::uint32_t index : fold.close_order[op]) {
      const Fold::Instance& instance = fold.instances[index];
      profile.latency.record(instance.latency);
      if (instance.latency > profile.worst_ns ||
          (profile.worst_track < 0 && profile.latency.count() == 1)) {
        profile.worst_ns = instance.latency;
        profile.worst_begin_ns = instance.begin;
        profile.worst_track = instance.track;
      }
    }
    profile.tail_threshold_ns = profile.latency.quantile(0.99);
  }
  // Path sums over every contribution, tail sums over the tail cohort's.
  // Cross-track redirects join the migration op's paths even when this
  // recorder never saw the migration root itself, but never its tail.
  std::vector<PathStat> paths(fold.path_names.size());
  std::vector<PathStat> tail_paths(fold.path_names.size());
  for (const Fold::Contribution& c : fold.contributions) {
    paths[c.path].exclusive_ns += c.exclusive_ns;
    ++paths[c.path].count;
    if (c.instance == kNone) {
      continue;
    }
    const Fold::Instance& instance = fold.instances[c.instance];
    if (instance.latency >= profiles[static_cast<std::size_t>(instance.op)]->tail_threshold_ns) {
      tail_paths[c.path].exclusive_ns += c.exclusive_ns;
      ++tail_paths[c.path].count;
    }
  }
  const auto add = [](std::map<std::string, PathStat>& into, const std::string& path,
                      const PathStat& stat) {
    PathStat& d = into[path];
    d.exclusive_ns += stat.exclusive_ns;
    d.count += stat.count;
  };
  for (std::size_t path = 1; path < fold.path_names.size(); ++path) {
    if (paths[path].count == 0) {
      continue;
    }
    const auto op = static_cast<std::size_t>(fold.path_op[path]);
    if (profiles[op] == nullptr) {
      profiles[op] = &doc.ops[std::string(obs::phase_name(fold.path_op[path]))];
    }
    add(profiles[op]->paths, fold.path_names[path], paths[path]);
    if (tail_paths[path].count != 0) {
      add(profiles[op]->tail_paths, fold.path_names[path], tail_paths[path]);
    }
  }
  return doc;
}

bool merge_profile(ProfDoc* into, const ProfDoc& from, std::string* error) {
  (void)error;
  for (const auto& [name, profile] : from.ops) {
    auto it = into->ops.find(name);
    if (it == into->ops.end()) {
      into->ops.emplace(name, profile);
      continue;
    }
    OpProfile& dst = it->second;
    dst.latency.merge(profile.latency);
    for (const auto& [path, stat] : profile.paths) {
      PathStat& d = dst.paths[path];
      d.exclusive_ns += stat.exclusive_ns;
      d.count += stat.count;
    }
    for (const auto& [path, stat] : profile.tail_paths) {
      PathStat& d = dst.tail_paths[path];
      d.exclusive_ns += stat.exclusive_ns;
      d.count += stat.count;
    }
    dst.tail_threshold_ns = std::max(dst.tail_threshold_ns, profile.tail_threshold_ns);
    if (worst_worse(profile, dst)) {
      dst.worst_ns = profile.worst_ns;
      dst.worst_begin_ns = profile.worst_begin_ns;
      dst.worst_track = profile.worst_track;
    }
  }
  into->dropped_spans += from.dropped_spans;
  return true;
}

ProfDoc prefix_profile(const ProfDoc& doc, std::string_view prefix) {
  ProfDoc out;
  out.dropped_spans = doc.dropped_spans;
  for (const auto& [name, profile] : doc.ops) {
    out.ops.emplace(std::string(prefix) + name, profile);
  }
  return out;
}

std::string render_profile_json(const ProfDoc& doc) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kProfileSchemaVersion);
  w.key("dropped_spans").value(doc.dropped_spans);
  w.key("ops").begin_array();
  for (const auto& [name, profile] : doc.ops) {
    w.begin_object();
    w.key("name").value(name);
    w.key("count").value(profile.latency.count());
    w.key("sum_ns").value(profile.latency.sum());
    w.key("min_ns").value(profile.latency.min());
    w.key("max_ns").value(profile.latency.max());
    w.key("p50_ns").value(profile.latency.quantile(0.50));
    w.key("p99_ns").value(profile.latency.quantile(0.99));
    w.key("buckets").begin_array();
    for (const auto& [index, n] : profile.latency.buckets()) {
      w.begin_array().value(static_cast<std::uint64_t>(index)).value(n).end_array();
    }
    w.end_array();
    w.key("tail_threshold_ns").value(profile.tail_threshold_ns);
    w.key("worst_ns").value(profile.worst_ns);
    w.key("worst_begin_ns").value(profile.worst_begin_ns);
    w.key("worst_track").value(profile.worst_track);
    w.key("paths").begin_array();
    for (const auto& [path, stat] : profile.paths) {
      w.begin_object();
      w.key("path").value(path);
      w.key("excl_ns").value(stat.exclusive_ns);
      w.key("count").value(stat.count);
      w.end_object();
    }
    w.end_array();
    w.key("tail_paths").begin_array();
    for (const auto& [path, stat] : profile.tail_paths) {
      w.begin_object();
      w.key("path").value(path);
      w.key("excl_ns").value(stat.exclusive_ns);
      w.key("count").value(stat.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

bool parse_profile_json(std::string_view text, ProfDoc* out, std::string* error) {
  const auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  obs::JsonValue root;
  std::string parse_error;
  if (!obs::json_parse(text, &root, &parse_error)) {
    return fail("bad JSON: " + parse_error);
  }
  const obs::JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kProfileSchemaVersion) {
    return fail("not a pvm.profile.v1 document");
  }
  ProfDoc doc;
  if (const obs::JsonValue* v = root.find("dropped_spans"); v != nullptr && v->is_number()) {
    doc.dropped_spans = as_u64(*v);
  }
  const obs::JsonValue* ops = root.find("ops");
  if (ops == nullptr || !ops->is_array()) {
    return fail("missing ops array");
  }
  const auto parse_paths = [](const obs::JsonValue* array,
                              std::map<std::string, PathStat>* into) {
    if (array == nullptr || !array->is_array()) {
      return;
    }
    for (const obs::JsonValue& entry : array->array) {
      const obs::JsonValue* path = entry.find("path");
      if (path == nullptr || !path->is_string()) {
        continue;
      }
      PathStat stat;
      if (const obs::JsonValue* v = entry.find("excl_ns")) stat.exclusive_ns = as_u64(*v);
      if (const obs::JsonValue* v = entry.find("count")) stat.count = as_u64(*v);
      (*into)[path->string] = stat;
    }
  };
  for (const obs::JsonValue& entry : ops->array) {
    const obs::JsonValue* name = entry.find("name");
    const obs::JsonValue* count = entry.find("count");
    const obs::JsonValue* sum = entry.find("sum_ns");
    const obs::JsonValue* min = entry.find("min_ns");
    const obs::JsonValue* max = entry.find("max_ns");
    const obs::JsonValue* buckets = entry.find("buckets");
    if (name == nullptr || !name->is_string() || count == nullptr || sum == nullptr ||
        min == nullptr || max == nullptr || buckets == nullptr || !buckets->is_array()) {
      return fail("malformed op entry");
    }
    OpProfile profile;
    std::map<std::uint32_t, std::uint64_t> parsed;
    for (const obs::JsonValue& pair : buckets->array) {
      if (!pair.is_array() || pair.array.size() != 2) {
        return fail("malformed bucket pair in op " + name->string);
      }
      parsed[static_cast<std::uint32_t>(as_u64(pair.array[0]))] = as_u64(pair.array[1]);
    }
    profile.latency = ts::MergeableHistogram::from_parts(
        as_u64(*count), as_u64(*sum), as_u64(*min), as_u64(*max), std::move(parsed));
    if (const obs::JsonValue* v = entry.find("tail_threshold_ns")) {
      profile.tail_threshold_ns = as_u64(*v);
    }
    if (const obs::JsonValue* v = entry.find("worst_ns")) profile.worst_ns = as_u64(*v);
    if (const obs::JsonValue* v = entry.find("worst_begin_ns")) {
      profile.worst_begin_ns = as_u64(*v);
    }
    if (const obs::JsonValue* v = entry.find("worst_track")) profile.worst_track = as_i64(*v);
    parse_paths(entry.find("paths"), &profile.paths);
    parse_paths(entry.find("tail_paths"), &profile.tail_paths);
    doc.ops.emplace(name->string, std::move(profile));
  }
  *out = std::move(doc);
  return true;
}

std::string render_collapsed_stacks(const ProfDoc& doc) {
  std::string out;
  for (const auto& [name, profile] : doc.ops) {
    for (const auto& [path, stat] : profile.paths) {
      // The path's first component repeats the op root; splice the op key (which
      // carries the sweep-coordinate prefix) in its place.
      const std::size_t semi = path.find(';');
      out += name;
      if (semi != std::string::npos) {
        out += path.substr(semi);
      }
      appendf(&out, " %llu\n", static_cast<unsigned long long>(stat.exclusive_ns));
    }
  }
  return out;
}

std::string render_blame(const ProfDoc& doc, const BlameOptions& options) {
  std::string out;
  std::size_t matched = 0;
  for (const auto& [name, profile] : doc.ops) {
    if (!options.filter.empty() && name.find(options.filter) == std::string::npos) {
      continue;
    }
    ++matched;
    out += "op " + name + ": ";
    appendf(&out, "count=%llu p50=%s p99=%s max=%s",
            static_cast<unsigned long long>(profile.latency.count()),
            format_ns(profile.latency.quantile(0.50)).c_str(),
            format_ns(profile.latency.quantile(0.99)).c_str(),
            format_ns(profile.latency.max()).c_str());
    if (profile.worst_track >= 0) {
      appendf(&out, "  worst=%s @t=%llu track=%lld",
              format_ns(profile.worst_ns).c_str(),
              static_cast<unsigned long long>(profile.worst_begin_ns),
              static_cast<long long>(profile.worst_track));
    }
    out += "\n";
    const auto render_paths = [&](const std::map<std::string, PathStat>& paths,
                                  std::string_view header) {
      if (paths.empty()) {
        return;
      }
      std::uint64_t total = 0;
      for (const auto& [path, stat] : paths) {
        total += stat.exclusive_ns;
      }
      // Sort by exclusive time descending; ties break on path name so the
      // table is deterministic.
      std::vector<std::pair<std::string_view, const PathStat*>> rows;
      rows.reserve(paths.size());
      for (const auto& [path, stat] : paths) {
        rows.emplace_back(path, &stat);
      }
      std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
        if (x.second->exclusive_ns != y.second->exclusive_ns) {
          return x.second->exclusive_ns > y.second->exclusive_ns;
        }
        return x.first < y.first;
      });
      out += "  ";
      out += header;
      out += "\n";
      const std::size_t shown = std::min(options.top_k, rows.size());
      for (std::size_t i = 0; i < shown; ++i) {
        const double share =
            total == 0 ? 0.0
                       : 100.0 * static_cast<double>(rows[i].second->exclusive_ns) /
                             static_cast<double>(total);
        appendf(&out, "    %5.1f%% %10s %8llu  ", share,
                format_ns(rows[i].second->exclusive_ns).c_str(),
                static_cast<unsigned long long>(rows[i].second->count));
        // Direct append: span paths can outgrow appendf's fixed buffer.
        out += rows[i].first;
        out += "\n";
      }
      if (rows.size() > shown) {
        appendf(&out, "    ... %llu more paths\n",
                static_cast<unsigned long long>(rows.size() - shown));
      }
    };
    render_paths(profile.paths, "critical-path share (all instances):");
    if (!profile.tail_paths.empty()) {
      std::string header = "tail cohort (latency >= ";
      header += format_ns(profile.tail_threshold_ns);
      header += "):";
      render_paths(profile.tail_paths, header);
    }
    out += "\n";
  }
  if (matched == 0) {
    out += options.filter.empty() ? "no operations recorded\n"
                                  : "no operations match filter \"" + options.filter + "\"\n";
  }
  if (doc.dropped_spans != 0) {
    appendf(&out, "warning: %llu spans dropped at record time; shares are lower bounds\n",
            static_cast<unsigned long long>(doc.dropped_spans));
  }
  return out;
}

}  // namespace pvm::prof
