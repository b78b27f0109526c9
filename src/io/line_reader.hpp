#pragma once

// Line-oriented tokenizer behind every text format the library reads:
// machine models, task graphs, mappings, profiles databases, evaluator
// state and checkpoints. Blank lines and `#` comments are skipped, tokens
// are whitespace-separated, and every error names the line it was found on.

#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/error.hpp"

namespace automap {

class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty, non-comment line split into tokens; false at EOF.
  bool next(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      if (const auto hash = line.find('#'); hash != std::string::npos)
        line.resize(hash);
      std::istringstream ls(line);
      tokens.clear();
      std::string token;
      while (ls >> token) tokens.push_back(token);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  /// Next line, which must read `<tag> <field 1> ... <field N>` with
  /// exactly `fields` fields; returns its tokens, tag first.
  [[nodiscard]] std::vector<std::string> tagged(const std::string& tag,
                                                std::size_t fields) {
    std::vector<std::string> t;
    if (!next(t)) fail("expected '" + tag + "', got end of input");
    if (t[0] != tag) fail("expected '" + tag + "', got '" + t[0] + "'");
    if (t.size() != fields + 1)
      fail("'" + tag + "' takes " + std::to_string(fields) + " field(s), got " +
           std::to_string(t.size() - 1));
    return t;
  }

  /// Number of the line `next` returned last.
  [[nodiscard]] int line() const { return line_number_; }

  [[noreturn]] void fail(const std::string& message) const {
    throw Error("line " + std::to_string(line_number_) + ": " + message);
  }

  void expect(bool condition, const std::string& message) const {
    if (!condition) fail(message);
  }

  /// `parse(token)` for a name decoder that throws Error on an unknown
  /// name (parse_proc_kind, parse_mem_kind), failing naming the line.
  template <typename Parse>
  [[nodiscard]] auto decode(Parse parse, const std::string& token) const {
    try {
      return parse(token);
    } catch (const Error& e) {
      fail(e.what());
    }
  }

  /// Any number std::stod reads, infinities and NaN included.
  [[nodiscard]] double to_double(const std::string& s) const {
    std::size_t pos = 0;
    double v = 0.0;
    try {
      v = std::stod(s, &pos);
    } catch (const std::logic_error&) {
      fail("expected a number, got: " + s);
    }
    if (pos != s.size()) fail("trailing characters in number: " + s);
    return v;
  }

  /// As `lo`, makes a range positive: (0, hi].
  static constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  /// As `hi`, bounds a range only by finiteness.
  static constexpr double kFinite = std::numeric_limits<double>::max();

  /// Finite number in [lo, hi]; NaN, an infinity or an out-of-range value
  /// fails naming the line.
  [[nodiscard]] double to_double(const std::string& s, double lo,
                                 double hi) const {
    const double v = to_double(s);
    if (!std::isfinite(v)) fail("expected a finite number, got: " + s);
    if (v < lo || v > hi) {
      const auto bound = [](double b) {
        char text[32];
        std::snprintf(text, sizeof text, "%g", b);
        return std::string(text);
      };
      fail("number " + s + " outside " +
           (lo == kPositive ? "(0" : "[" + bound(lo)) + ", " +
           (hi == kFinite ? "inf)" : bound(hi) + "]"));
    }
    return v;
  }

  /// Integer in [lo, hi]; anything else (a fraction, an exponent, an
  /// out-of-range value) fails naming the line.
  [[nodiscard]] long long to_int(const std::string& s,
                                 long long lo = LLONG_MIN,
                                 long long hi = LLONG_MAX) const {
    std::size_t pos = 0;
    long long v = 0;
    try {
      v = std::stoll(s, &pos);
    } catch (const std::logic_error&) {
      fail("expected an integer, got: " + s);
    }
    if (pos != s.size()) fail("trailing characters in integer: " + s);
    if (v < lo || v > hi)
      fail("integer " + s + " outside [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
    return v;
  }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

}  // namespace automap
