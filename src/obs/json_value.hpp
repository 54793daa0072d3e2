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
#include <variant>
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
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  /// The alternatives are declared in Type order.
  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed access; a value of another type reads as that type's empty
  /// value (false, 0, "", [], {}).
  bool as_bool() const { return get_or<bool>(); }
  double as_number() const { return get_or<double>(); }
  const std::string& as_string() const { return get_or<std::string>(); }
  const Array& as_array() const { return get_or<Array>(); }
  const Object& as_object() const { return get_or<Object>(); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// find + type filter, as typed optionals for terse call sites.
  std::optional<double> number_at(std::string_view key) const;
  std::optional<std::string> string_at(std::string_view key) const;
  std::optional<bool> bool_at(std::string_view key) const;

 private:
  template <class T>
  const T& get_or() const {
    static const T kEmpty{};
    const T* v = std::get_if<T>(&value_);
    return v != nullptr ? *v : kEmpty;
  }

  /// One node holds exactly one alternative, so a loaded document costs
  /// about one variant per value rather than every container at once.
  std::variant<std::monostate, bool, double, std::string, Array, Object>
      value_;
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
