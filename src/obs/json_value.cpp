#include "src/obs/json_value.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace msgorder {

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto* object = std::get_if<Object>(&value_);
  if (object == nullptr) return nullptr;
  const auto it = object->find(key);
  return it == object->end() ? nullptr : &it->second;
}

std::optional<double> JsonValue::number_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_number();
}

std::optional<std::string> JsonValue::string_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_string()) return std::nullopt;
  return v->as_string();
}

std::optional<bool> JsonValue::bool_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_bool()) return std::nullopt;
  return v->as_bool();
}

namespace {

/// Deepest accepted nesting of values (json_parse's contract).
constexpr int kJsonMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v;
    if (!parse_value(v)) {
      fill_error(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after document";
      fill_error(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void fill_error(std::string* error) const {
    if (error != nullptr) {
      *error = error_ + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  /// Every value, scalars included, counts one nesting level.
  bool parse_value(JsonValue& out) {
    if (depth_ == kJsonMaxDepth) return fail("nesting too deep");
    ++depth_;
    const bool ok = parse_value_body(out);
    --depth_;
    return ok;
  }

  bool parse_value_body(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue(nullptr);
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    JsonValue::Object obj;
    skip_ws();
    if (consume('}')) {
      out = JsonValue(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue member;
      if (!parse_value(member)) return false;
      obj.insert_or_assign(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail("expected ',' or '}'");
    }
    out = JsonValue(std::move(obj));
    return true;
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    JsonValue::Array arr;
    skip_ws();
    if (consume(']')) {
      out = JsonValue(std::move(arr));
      return true;
    }
    while (true) {
      JsonValue element;
      if (!parse_value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return fail("expected ',' or ']'");
    }
    out = JsonValue(std::move(arr));
    return true;
  }

  static void append_utf8(std::string& s, unsigned code) {
    if (code < 0x80) {
      s.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (code >> 6)));
      s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xE0 | (code >> 12)));
      s.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            append_utf8(out, code);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("invalid number");
    }
    if (!consume('0')) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (consume('.')) {
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("invalid number");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    out = JsonValue(std::strtod(token.c_str(), nullptr));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

std::optional<JsonValue> json_parse_file(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::string parse_error;
  auto doc = json_parse(text, &parse_error);
  if (!doc && error != nullptr) *error = path + ": " + parse_error;
  return doc;
}

}  // namespace msgorder
