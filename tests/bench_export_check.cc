// Structural checks on a pvm.bench.v1 export, for the bench smoke ctest
// cases (bench_smoke_check.cmake). Each check is one condition on the parsed
// document:
//
//   schema                   .schema == "pvm.bench.v1"
//   runs                     .runs is a non-empty array
//   labeled                  every run has a label and a non-empty values object
//   counters                 at least one run has a counters object
//   counter-sum:<name>[@<prefix>]
//                            the sum of counters.<name> (missing counts 0)
//                            over the runs whose label starts with <prefix>
//                            (all runs without one) is > 0
//   values-zero:<key>@<prefix>
//                            values.<key> is present and 0 in every run whose
//                            label starts with <prefix>
//
// Usage: bench_export_check <export.json> <check>...
// Exit 0 when every check holds, 1 when one fails, 2 on bad usage or an
// unreadable document.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "src/obs/json_parse.h"

namespace {

using pvm::obs::JsonValue;

// Splits "<head>@<prefix>" at the last '@'; no '@' leaves the prefix empty.
std::pair<std::string, std::string> split_prefix(std::string_view arg) {
  const std::size_t at = arg.rfind('@');
  if (at == std::string_view::npos) {
    return {std::string(arg), ""};
  }
  return {std::string(arg.substr(0, at)), std::string(arg.substr(at + 1))};
}

bool label_starts_with(const JsonValue& run, const std::string& prefix) {
  const JsonValue* label = run.find("label");
  return label != nullptr && label->is_string() && label->string.starts_with(prefix);
}

// Returns 1 when the check holds, 0 when it fails, -1 for an unknown check.
int holds(const JsonValue& doc, const JsonValue& runs, std::string_view check) {
  if (check == "schema") {
    const JsonValue* schema = doc.find("schema");
    return schema != nullptr && schema->is_string() && schema->string == "pvm.bench.v1";
  }
  if (check == "runs") {
    return !runs.array.empty();
  }
  if (check == "labeled") {
    for (const JsonValue& run : runs.array) {
      const JsonValue* label = run.find("label");
      const JsonValue* values = run.find("values");
      if (label == nullptr || label->is_null() || values == nullptr ||
          values->object.empty()) {
        return 0;
      }
    }
    return 1;
  }
  if (check == "counters") {
    for (const JsonValue& run : runs.array) {
      if (run.find("counters") != nullptr) {
        return 1;
      }
    }
    return 0;
  }
  if (check.starts_with("counter-sum:")) {
    const auto [name, prefix] = split_prefix(check.substr(check.find(':') + 1));
    double sum = 0;
    for (const JsonValue& run : runs.array) {
      if (!label_starts_with(run, prefix)) {
        continue;
      }
      if (const JsonValue* counters = run.find("counters"); counters != nullptr) {
        if (const JsonValue* value = counters->find(name); value != nullptr) {
          sum += value->number;
        }
      }
    }
    return sum > 0;
  }
  if (check.starts_with("values-zero:")) {
    const auto [key, prefix] = split_prefix(check.substr(check.find(':') + 1));
    for (const JsonValue& run : runs.array) {
      if (!label_starts_with(run, prefix)) {
        continue;
      }
      const JsonValue* values = run.find("values");
      const JsonValue* value = values != nullptr ? values->find(key) : nullptr;
      if (value == nullptr || !value->is_number() || value->number != 0) {
        return 0;
      }
    }
    return 1;
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: bench_export_check <export.json> <check>...\n");
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_export_check: cannot read %s\n", argv[1]);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  JsonValue doc;
  std::string error;
  if (!pvm::obs::json_parse(text.str(), &doc, &error)) {
    std::fprintf(stderr, "bench_export_check: %s: %s\n", argv[1], error.c_str());
    return 2;
  }
  const JsonValue* runs = doc.find("runs");
  const JsonValue empty_runs;
  if (runs == nullptr || !runs->is_array()) {
    runs = &empty_runs;
  }
  int failed = 0;
  for (int i = 2; i < argc; ++i) {
    const int result = holds(doc, *runs, argv[i]);
    if (result < 0) {
      std::fprintf(stderr, "bench_export_check: unknown check '%s'\n", argv[i]);
      return 2;
    }
    std::printf("%s: %s\n", result == 1 ? "ok" : "FAIL", argv[i]);
    failed += result == 1 ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}
