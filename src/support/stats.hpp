#pragma once

// Streaming statistics.
//
// AutoMap evaluates each candidate mapping several times (the paper uses 7
// during search and 30/31 for finalists) because run-to-run variance is
// significant; the ablation bench summarizes its per-seed results with this
// accumulator.

#include <cstddef>

namespace automap {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace automap
