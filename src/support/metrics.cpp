#include "src/support/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "src/support/error.hpp"
#include "src/support/json.hpp"

namespace automap {
namespace {

// Prometheus sample values: integers print without an exponent, other
// finite values reuse the deterministic %.17g form (unquoted), non-finite
// values use the exposition-format spellings.
std::string sample_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return json_double(v);
}

/// Splits `name{labels}` into (name, labels); labels is empty for a plain
/// name. The split is syntactic — a '{' anywhere marks the label set.
std::pair<std::string, std::string> split_labels(const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  AM_REQUIRE(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()),
             "histogram bucket bounds must be sorted");
  buckets_.assign(upper_bounds_.size() + 1, 0);  // last = overflow (+Inf)
}

void Histogram::observe(double value) {
  std::size_t i = 0;
  while (i < upper_bounds_.size() && value > upper_bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b];
  }
  return total;
}

double Histogram::quantile(double q) const {
  AM_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) return std::nan("");
  if (upper_bounds_.empty()) return sum_ / static_cast<double>(count_);
  // Target rank within the cumulative distribution; the first bucket whose
  // cumulative count reaches it holds the quantile.
  const double rank = q * static_cast<double>(count_);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i];
    const std::uint64_t through = before + in_bucket;
    if (static_cast<double>(through) >= rank && in_bucket > 0) {
      const double lo = i == 0 ? 0.0 : upper_bounds_[i - 1];
      const double hi = upper_bounds_[i];
      const double into =
          (rank - static_cast<double>(before)) / static_cast<double>(in_bucket);
      // rank <= before (q == 0 or empty leading buckets) clamps to the
      // bucket's lower edge.
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
    }
    before = through;
  }
  // Quantile falls in the +Inf overflow bucket: the honest answer is
  // "beyond the highest finite bound" — clamp there.
  return upper_bounds_.back();
}

MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name) {
  for (auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  bool deterministic) {
  if (Entry* e = find(name)) {
    AM_REQUIRE(e->kind == Kind::kCounter,
               "metric re-registered with a different kind: " + name);
    return e->counter.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kCounter;
  e->deterministic = deterministic;
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              bool deterministic) {
  if (Entry* e = find(name)) {
    AM_REQUIRE(e->kind == Kind::kGauge,
               "metric re-registered with a different kind: " + name);
    return e->gauge.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kGauge;
  e->deterministic = deterministic;
  e->gauge = std::make_unique<Gauge>();
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upper_bounds,
                                      bool deterministic) {
  if (Entry* e = find(name)) {
    AM_REQUIRE(e->kind == Kind::kHistogram,
               "metric re-registered with a different kind: " + name);
    return e->histogram.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = Kind::kHistogram;
  e->deterministic = deterministic;
  e->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

std::string MetricsRegistry::expose() const {
  std::string out;
  std::string prev_base;
  for (const auto& e : entries_) {
    const auto [base, labels] = split_labels(e->name);
    // Consecutive entries sharing a base name (labeled series of one
    // instrument family) share a single # HELP / # TYPE block.
    if (base != prev_base) {
      out += "# HELP " + base + " " + e->help + "\n";
      switch (e->kind) {
        case Kind::kCounter:
          out += "# TYPE " + base + " counter\n";
          break;
        case Kind::kGauge:
          out += "# TYPE " + base + " gauge\n";
          break;
        case Kind::kHistogram:
          out += "# TYPE " + base + " histogram\n";
          break;
      }
      prev_base = base;
    }
    const std::string plain =
        labels.empty() ? base : base + "{" + labels + "}";
    switch (e->kind) {
      case Kind::kCounter:
        out += plain + " " + std::to_string(e->counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += plain + " " + sample_value(e->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        // Histogram suffixes splice before the label set so the `le`
        // label lands inside the same braces as the instrument's own.
        const std::string le_prefix =
            labels.empty() ? "{le=\"" : "{" + labels + ",le=\"";
        const Histogram& h = *e->histogram;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          out += base + "_bucket" + le_prefix +
                 sample_value(h.upper_bounds()[i]) + "\"} " +
                 std::to_string(h.cumulative(i)) + "\n";
        }
        out += base + "_bucket" + le_prefix + "+Inf\"} " +
               std::to_string(h.count()) + "\n";
        const std::string suffix_labels =
            labels.empty() ? "" : "{" + labels + "}";
        out += base + "_sum" + suffix_labels + " " + sample_value(h.sum()) +
               "\n";
        out += base + "_count" + suffix_labels + " " +
               std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::snapshot_json(JsonWriter& out) const {
  out.begin_object();
  for (const auto& e : entries_) {
    if (!e->deterministic || e->kind == Kind::kHistogram) continue;
    if (e->kind == Kind::kCounter)
      out.integer(e->name, e->counter->value());
    else
      out.num(e->name, e->gauge->value());
  }
  out.end_object();
}

void MetricsRegistry::quantiles_json(JsonWriter& out) const {
  out.begin_object();
  for (const auto& e : entries_) {
    if (e->kind != Kind::kHistogram || e->histogram->count() == 0) continue;
    const Histogram& h = *e->histogram;
    out.begin_object(e->name).num("p50", h.quantile(0.50));
    out.num("p95", h.quantile(0.95)).num("p99", h.quantile(0.99));
    out.integer("count", h.count()).end_object();
  }
  out.end_object();
}

}  // namespace automap
