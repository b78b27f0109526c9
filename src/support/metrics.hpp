#pragma once

// Lightweight metrics registry (§ISSUE 5): counters, gauges and
// fixed-bucket histograms threaded through the evaluator, simulator and
// search loops. Instruments are registered once by name and then updated
// through cached pointers, so the per-event cost is one guarded increment
// and a disabled registry (null pointer in SearchOptions/SimOptions) costs
// nothing on the hot path.
//
// Determinism contract: instruments marked `deterministic` depend only on
// the search's configuration, never on the wall clock — all evaluator and
// search counters qualify because they are updated as Evaluator::evaluate
// folds each candidate. Raw simulator run counts do NOT qualify (pruning on
// or off changes them, because bounded runs abort early), so those
// instruments are registered with deterministic=false: they are excluded
// from journal snapshots (which must be byte-identical with pruning on or
// off) and only appear in the final --metrics-out exposition.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace automap {

class JsonWriter;

/// Monotone counter. Atomic because the daemon's connection threads bump
/// service counters outside the service mutex; everything else in the
/// registry is single-threaded or updated under a lock.
class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge. Updated only from the serial search loop.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with cumulative Prometheus semantics.
/// Updated only from the serial search loop.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return upper_bounds_;
  }
  /// Count of observations <= upper_bounds()[i] (cumulative).
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Bucket-interpolated quantile estimate for q in [0, 1] — the same
  /// linear-within-bucket model as Prometheus' histogram_quantile, with
  /// the first bucket's lower edge taken as 0 (the instrument records
  /// non-negative durations/sizes). Observations landing in the +Inf
  /// overflow bucket clamp to the highest finite bound. NaN when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> buckets_;  // per-bucket, non-cumulative
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Insertion-ordered registry. Registration is idempotent by name (the
/// evaluator and CCD both run per search; re-registering returns the
/// existing instrument), lookups during search go through cached pointers.
///
/// Labeled series: a name may carry an inline Prometheus label set, e.g.
/// `automap_service_handle_seconds{op="submit"}`. Each labeled name is its
/// own instrument; expose() renders the shared base name once per # HELP /
/// # TYPE block and splices histogram suffixes before the label set
/// (`base_bucket{op="submit",le="0.1"}`), so the text stays valid
/// exposition format.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const std::string& help,
                   bool deterministic = true);
  Gauge* gauge(const std::string& name, const std::string& help,
               bool deterministic = true);
  Histogram* histogram(const std::string& name, const std::string& help,
                       std::vector<double> upper_bounds,
                       bool deterministic = true);

  /// Full Prometheus text exposition (# HELP / # TYPE / samples), all
  /// instruments, insertion order. Written to --metrics-out.
  [[nodiscard]] std::string expose() const;

  /// JSON object ({"name":value,...}) of the deterministic counters and
  /// gauges only — embedded in journal `metrics` events, which must stay
  /// byte-identical with pruning on or off. Histograms and
  /// nondeterministic instruments are excluded. Writes the object as the
  /// next value of `out`.
  void snapshot_json(JsonWriter& out) const;

  /// JSON object of bucket-interpolated latency quantiles for every
  /// non-empty histogram, insertion order:
  /// {"name":{"p50":v,"p95":v,"p99":v,"count":n},...}. Served in the
  /// mapping service's `stats` response and rendered by `automap_client
  /// top`.
  void quantiles_json(JsonWriter& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    bool deterministic;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find(const std::string& name);

  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace automap
