#pragma once

// Plain-text table renderer used by the bench harnesses to print the rows of
// each paper table/figure in a uniform format.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace automap {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

  /// Renders with column alignment and a header separator.
  void print(std::ostream& os) const;

  /// Renders as CSV (no quoting of separators; callers keep cells simple).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace automap
