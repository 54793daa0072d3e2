// A small owning JSON document model plus a strict recursive-descent
// parser (ISSUE 4): the reader side of the observability layer.  The
// writer side (json.hpp) streams; this side loads the emitted artifacts
// — run reports, bench reports, flight-recorder dumps, Chrome traces —
// back in for the msgorder_stats and msgorder_query CLIs and the tests
// (which check every emitted artifact with it).  The grammar is strict:
// one complete value, no leading zeros, UTF-8 passed through,
// \uXXXX escapes decoded, and nesting bounded at 256 levels so a
// hostile document fails with an error instead of overflowing the
// stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace msgorder {

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<JsonValue>;
  /// Ordered map: keys sort lexicographically, which keeps every
  /// downstream rendering deterministic.
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() = default;
  explicit JsonValue(std::nullptr_t) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a)
      : type_(Type::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o)
      : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  const Object& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// find + type filter, as typed optionals for terse call sites.
  std::optional<double> number_at(std::string_view key) const;
  std::optional<std::string> string_at(std::string_view key) const;
  std::optional<bool> bool_at(std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse exactly one JSON value (whitespace allowed around it).
/// nullopt on malformed or too deeply nested input (every value counts
/// one level and 256 levels parse, so 256 nested empty arrays do but a
/// scalar inside 256 arrays does not); `error` (if non-null) then
/// receives a short description with the byte offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

/// Read a whole file and parse it.  nullopt on I/O or parse failure.
std::optional<JsonValue> json_parse_file(const std::string& path,
                                         std::string* error = nullptr);

}  // namespace msgorder
