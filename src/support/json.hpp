#pragma once

// Minimal JSON support: JsonWriter spells every JSON document the program
// writes (docs/file_formats.md), deterministically so they are
// byte-comparable across runs and builds, and a small recursive-descent
// parser reads them back. It is deliberately not a general-purpose JSON
// library: no comments, objects keep insertion order (key order matters
// for byte-identity checks).

#include <charconv>
#include <climits>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace automap {

/// A parsed JSON value. Exactly one of the payload members is meaningful,
/// selected by `kind`; the others stay default-constructed.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in source order (journal schema checks rely on ordering).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// The same lookup, for moving a decoded member out.
  [[nodiscard]] JsonValue* find(std::string_view key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Convenience accessors with fallbacks for absent/mistyped members.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   const std::string& fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  /// A double json_double may have quoted (json_wide_number), with a
  /// fallback for an absent or mistyped member.
  [[nodiscard]] double wide_num_or(std::string_view key,
                                   double fallback) const;
};

/// Strict member decoders for wire requests and journal records: a value
/// of the wrong type, or a number outside [lo, hi], throws Error naming
/// `key` instead of falling back to a default.
[[nodiscard]] double json_number(const JsonValue& v, const std::string& key,
                                 double lo, double hi);
/// Integral number in [lo, hi].
[[nodiscard]] int json_int(const JsonValue& v, const std::string& key,
                           int lo = INT_MIN, int hi = INT_MAX);
[[nodiscard]] bool json_bool(const JsonValue& v, const std::string& key);
[[nodiscard]] std::string json_str(const JsonValue& v, const std::string& key);
/// A double json_double may have quoted (json_wide_number).
[[nodiscard]] double json_wide(const JsonValue& v, const std::string& key);
/// 64-bit values travel as decimal strings (JSON numbers lose precision
/// past 2^53); hand-written requests may use plain integral numbers.
[[nodiscard]] std::uint64_t json_u64(const JsonValue& v,
                                     const std::string& key);
/// The same decoders for an optional member of `object`: `fallback` when
/// the member is absent, an Error naming `key` when it is present but
/// mistyped or out of range.
[[nodiscard]] int json_int_or(const JsonValue& object, const std::string& key,
                              int fallback, int lo = INT_MIN,
                              int hi = INT_MAX);
[[nodiscard]] std::uint64_t json_u64_or(const JsonValue& object,
                                        const std::string& key,
                                        std::uint64_t fallback);

/// Parses one JSON document as RFC 8259 defines it (throws Error on
/// malformed input, with an offset in the message): a raw byte below 0x20
/// inside a string and a number outside the grammar (a leading '+' or
/// zero, no digit on one side of the point) are errors too. Trailing
/// whitespace is allowed; trailing content is an error.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Escapes a string for embedding between JSON quotes (handles quote,
/// backslash and control characters; multi-byte UTF-8 passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Deterministic JSON rendering of a double: finite values in the bytes
/// %.17g prints (through std::to_chars, which no locale changes),
/// non-finite values as the quoted strings "inf"/"-inf"/"nan" since JSON
/// has no literals for them.
[[nodiscard]] std::string json_double(double value);

/// The inverse of json_double: a number, or one of the quoted strings
/// "inf", "-inf" and "nan"; std::nullopt for any other value.
[[nodiscard]] std::optional<double> json_wide_number(const JsonValue& v);

/// Lower-case hex rendering of a 64-bit value (mapping hashes exceed
/// JSON's exactly-representable integer range, so they travel as strings).
[[nodiscard]] std::string hex_u64(std::uint64_t value);

/// Streaming writer of one JSON document into a string, without
/// whitespace: strings are escaped as json_escape escapes them, doubles
/// print as json_double prints them, and the writer places the commas in
/// nested objects and arrays. A value call writes an array element (or the
/// document); its overload with a key writes an object member.
class JsonWriter {
 public:
  using Key = std::string_view;

  JsonWriter& begin_object() { return open("{"); }
  JsonWriter& end_object() { return close("}"); }
  JsonWriter& begin_array() { return open("["); }
  JsonWriter& end_array() { return close("]"); }
  /// An object member's key; the next call writes its value.
  JsonWriter& key(Key k);
  JsonWriter& str(std::string_view text);
  JsonWriter& num(double number);
  template <std::integral T>
  JsonWriter& integer(T number) {
    char buf[24];
    return token({buf, std::to_chars(buf, buf + sizeof(buf), number).ptr});
  }
  JsonWriter& boolean(bool flag) { return token(flag ? "true" : "false"); }
  JsonWriter& null() { return token("null"); }
  /// Splices already-rendered JSON verbatim where the next value goes (or,
  /// inside an object, the next members). Only for text another owner
  /// renders: the options codecs, whose canonical output is also a
  /// fingerprint input and a checkpoint-header line, and the `args_json`
  /// members a ChromeTraceBuilder caller passes.
  JsonWriter& raw(std::string_view json) { return token(json); }

  JsonWriter& begin_object(Key k) { return key(k).begin_object(); }
  JsonWriter& begin_array(Key k) { return key(k).begin_array(); }
  JsonWriter& str(Key k, std::string_view text) { return key(k).str(text); }
  JsonWriter& num(Key k, double number) { return key(k).num(number); }
  template <std::integral T>
  JsonWriter& integer(Key k, T number) { return key(k).integer(number); }
  JsonWriter& boolean(Key k, bool flag) { return key(k).boolean(flag); }
  JsonWriter& raw(Key k, std::string_view json) { return key(k).raw(json); }

  /// Moves the document out; the writer is spent.
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// Writes one value's text, after a comma if a value precedes it.
  JsonWriter& token(std::string_view json);
  JsonWriter& open(std::string_view bracket) {
    token(bracket).comma_ = false;
    return *this;
  }
  /// A closing bracket ends a value but follows no comma.
  JsonWriter& close(std::string_view bracket) {
    comma_ = false;
    return token(bracket);
  }

  std::string out_;
  bool comma_ = false;  // a value ended last: the next one needs a comma
};

}  // namespace automap
