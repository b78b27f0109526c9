#include "src/support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/support/error.hpp"

namespace automap {
namespace {

// Recursive-descent parser over a string_view. Offsets are byte offsets
// into the original text, reported on error for debuggability.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // A run of plain bytes moves in one append; it ends at the next
      // quote, backslash or raw control byte.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20)
        ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      if (static_cast<unsigned char>(text_[pos_]) < 0x20)
        fail("raw control byte in string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          // A code point above U+FFFF is escaped as a UTF-16 surrogate
          // pair, high half first; either half alone encodes nothing.
          const std::size_t start = pos_ - 2;
          unsigned code = hex4();
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            const std::size_t low_at = pos_;
            pos_ += 2;
            const unsigned low = hex4();
            if (low >= 0xDC00 && low <= 0xDFFF)
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            else
              pos_ = low_at;
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            pos_ = start;
            fail("unpaired surrogate " + std::string(text_.substr(start, 6)));
          }
          // Minimal UTF-8: one byte below U+0080, up to four above.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  /// The four hex digits of a \\u escape, as a UTF-16 code unit.
  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code += static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code += static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code += static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return code;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_number(token)) {
      pos_ = start;
      fail("bad number '" + token + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    return v;
  }

  /// RFC 8259's number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  /// — no leading '+' or zero, and a digit on both sides of the point.
  static bool is_number(std::string_view t) {
    std::size_t i = 0;
    const auto digits = [&] {
      const std::size_t from = i;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') ++i;
      return i - from;
    };
    if (i < t.size() && t[i] == '-') ++i;
    const std::size_t first = i;
    const std::size_t whole = digits();
    if (whole == 0 || (whole > 1 && t[first] == '0')) return false;
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (digits() == 0) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (digits() == 0) return false;
    }
    return i == t.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v && v->kind == Kind::kString) ? v->string : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v && v->kind == Kind::kBool) ? v->boolean : fallback;
}

double JsonValue::wide_num_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  if (!v) return fallback;
  if (v->kind == Kind::kNumber) return v->number;
  if (v->kind == Kind::kString) {
    if (v->string == "inf") return std::numeric_limits<double>::infinity();
    if (v->string == "-inf") return -std::numeric_limits<double>::infinity();
    if (v->string == "nan") {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  return fallback;
}

double json_number(const JsonValue& v, const std::string& key, double lo,
                   double hi) {
  // The negated form also rejects NaN.
  if (v.kind != JsonValue::Kind::kNumber ||
      !(v.number >= lo && v.number <= hi))
    throw Error("field '" + key + "' must be a number in [" +
                json_double(lo) + ", " + json_double(hi) + "]");
  return v.number;
}

int json_int(const JsonValue& v, const std::string& key, int lo, int hi) {
  const double n = json_number(v, key, lo, hi);
  if (n != std::trunc(n))
    throw Error("field '" + key + "' must be an integer");
  return static_cast<int>(n);
}

bool json_bool(const JsonValue& v, const std::string& key) {
  if (v.kind != JsonValue::Kind::kBool)
    throw Error("field '" + key + "' must be a boolean");
  return v.boolean;
}

std::string json_str(const JsonValue& v, const std::string& key) {
  if (v.kind != JsonValue::Kind::kString)
    throw Error("field '" + key + "' must be a string");
  return v.string;
}

std::uint64_t json_u64(const JsonValue& v, const std::string& key) {
  // Every integral double in [0, 2^64) converts exactly.
  if (v.kind == JsonValue::Kind::kNumber && v.number >= 0 &&
      v.number < 0x1p64 && v.number == std::trunc(v.number))
    return static_cast<std::uint64_t>(v.number);
  // stoull skips blanks and wraps a leading '-'; demand a digit first.
  if (v.kind == JsonValue::Kind::kString &&
      std::isdigit(static_cast<unsigned char>(v.string[0]))) {
    try {
      std::size_t used = 0;
      const std::uint64_t parsed = std::stoull(v.string, &used);
      if (used == v.string.size()) return parsed;
    } catch (const std::out_of_range&) {
    }
  }
  throw Error("field '" + key + "' must be a 64-bit unsigned integer");
}

int json_int_or(const JsonValue& object, const std::string& key,
                int fallback, int lo, int hi) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? fallback : json_int(*v, key, lo, hi);
}

std::uint64_t json_u64_or(const JsonValue& object, const std::string& key,
                          std::uint64_t fallback) {
  const JsonValue* v = object.find(key);
  return v == nullptr ? fallback : json_u64(*v, key);
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_double(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  // The same bytes as "%.17g", without printf's format parsing.
  char buf[40];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17);
  return std::string(buf, end.ptr);
}

std::string hex_u64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace automap
