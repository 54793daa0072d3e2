#include "src/obs/json.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace msgorder {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes a "key": pair, no separator
  }
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'O' || top == 'A') {
    out_ += ',';
  } else {
    top = (top == '{') ? 'O' : 'A';  // first element seen
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  stack_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!stack_.empty() && (stack_.back() == '{' || stack_.back() == 'O'));
  stack_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  stack_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!stack_.empty() && (stack_.back() == '[' || stack_.back() == 'A'));
  stack_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  assert(!stack_.empty() && (stack_.back() == '{' || stack_.back() == 'O'));
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  if (!std::isfinite(d)) {
    out_ += "null";  // JSON has no NaN/Inf
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  comma();
  out_ += std::to_string(u);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

bool write_text_file(const std::string& path, std::string_view contents,
                     std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  out.close();
  if (!out) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace msgorder
