// Minimal dependency-free JSON support for the observability layer: a
// streaming writer, used by the metrics registry, the Chrome-trace
// renderer and the run/bench reports.  The reader side — one strict
// grammar for tools and tests alike — is json_parse (json_value.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace msgorder {

/// Escape a string for inclusion inside JSON quotes (no surrounding
/// quotes added).
std::string json_escape(std::string_view s);

/// Streaming JSON writer with automatic comma placement.  Usage:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("protocol").value("fifo");
///   w.key("rows").begin_array(); ... w.end_array();
///   w.end_object();
///   std::string text = w.str();
///
/// The writer never validates nesting beyond an assert-level depth
/// check; callers are expected to produce balanced documents (tests
/// back this with json_parse).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; must be followed by exactly one value or
  /// container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(unsigned u) {
    return value(static_cast<std::uint64_t>(u));
  }
  JsonWriter& null();

  /// key(name) followed by value(v).
  template <typename T>
  JsonWriter& kv(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  /// One char per open container: '{' or '['; top of stack tracks
  /// whether a separator is pending ('O'/'A' after the first element).
  std::string stack_;
  bool pending_key_ = false;
};

/// Write `contents` to `path` atomically enough for reports (truncate +
/// write + close).  Returns false and fills `error` on I/O failure.
bool write_text_file(const std::string& path, std::string_view contents,
                     std::string* error = nullptr);

}  // namespace msgorder
