#include "src/obs/json.h"

#include <cinttypes>
#include <cstdio>

namespace pvm::obs {

namespace {

// Appends `text` JSON-escaped to `out`. The common case — nothing to
// escape — is one scan and one append.
void append_escaped(std::string& out, std::string_view text) {
  const auto needs_escape = [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  };
  std::size_t clean = 0;
  while (clean < text.size() && !needs_escape(text[clean])) {
    ++clean;
  }
  out.append(text.data(), clean);
  for (std::size_t i = clean; i < text.size(); ++i) {
    const char c = text[i];
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
        break;
    }
  }
}

}  // namespace

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes a "key": pair; no comma
  }
  if (!element_written_.empty()) {
    if (element_written_.back()) {
      out_ += ',';
    }
    element_written_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  element_written_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  element_written_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  element_written_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  element_written_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view key) {
  comma();
  out_ += '"';
  append_escaped(out_, key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma();
  out_ += '"';
  append_escaped(out_, text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  comma();
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  comma();
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  comma();
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6f", number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  comma();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

std::string JsonWriter::escape(std::string_view text) {
  std::string result;
  result.reserve(text.size());
  append_escaped(result, text);
  return result;
}

}  // namespace pvm::obs
