#pragma once

// Line-oriented tokenizer behind every text format the library reads:
// machine models, task graphs, mappings, profiles databases, evaluator
// state and checkpoints. Blank lines and `#` comments are skipped, tokens
// are whitespace-separated, and every error names the line it was found on.

#include <climits>
#include <cstddef>
#include <istream>
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

  [[noreturn]] void fail(const std::string& message) const {
    throw Error("line " + std::to_string(line_number_) + ": " + message);
  }

  void expect(bool condition, const std::string& message) const {
    if (!condition) fail(message);
  }

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
