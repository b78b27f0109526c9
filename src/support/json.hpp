#pragma once

// Minimal JSON support for the provenance journal (docs/file_formats.md).
//
// The journal is JSONL — one object per line — written with deterministic
// formatting so journals are byte-comparable across runs, and read back by
// the `explain`/`replay` tooling. This header provides both directions:
// escape/format helpers for the writer and a small recursive-descent parser
// for the readers. It is deliberately not a
// general-purpose JSON library: no streaming, no comments, objects keep
// insertion order (journal events are small and key order matters for
// byte-identity checks).

#include <climits>
#include <cstdint>
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
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Convenience accessors with fallbacks for absent/mistyped members.
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   const std::string& fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  /// Doubles the journal wrote as quoted "inf"/"-inf"/"nan" (JSON has no
  /// non-finite literals) read back through this: accepts both a number
  /// and one of those strings.
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

/// Deterministic JSON rendering of a double: finite values via %.17g
/// (shortest round-trippable form is locale-independent here), non-finite
/// values as the quoted strings "inf"/"-inf"/"nan" since JSON has no
/// literals for them.
[[nodiscard]] std::string json_double(double value);

/// Lower-case hex rendering of a 64-bit value (mapping hashes exceed
/// JSON's exactly-representable integer range, so they travel as strings).
[[nodiscard]] std::string hex_u64(std::uint64_t value);

}  // namespace automap
