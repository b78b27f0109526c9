#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "perfbench.hpp"
#include "src/support/json.hpp"

namespace perfbench {

// The benchmark keeps its own statistics and digest instead of the
// library's (src/support/stats, service fingerprints): the yardstick must
// not change with the code it measures.

std::optional<Percentile> percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  const std::size_t beyond = n - 1 - index;
  if (beyond < 10) return std::nullopt;
  return Percentile{.value = samples[index], .samples = n, .beyond = beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"latency_ms.p50", "ms", "lower"},
      {"latency_ms.p90", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"speedup_vs_default", "x", "higher"},
      {"sim_search_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"trace.latency_ms.p50", "ms", "lower"},
      {"host.slowdown", "ratio", "lower"},
      {"sim.events_per_op", "count", "lower"},
      {"sim.runs_per_op", "count", "lower"},
      {"sim.censored_run_share", "ratio", "higher"},
      {"sim.prepared_ns_per_event", "ns", "lower"},
      {"sim.begin_runs_us", "us", "lower"},
      {"sim.repeats_ns_per_event", "ns", "lower"},
      {"sim.share", "ratio", "lower"},
      {"support.rng.lognormal_ns", "ns", "lower"},
      {"support.rng.share", "ratio", "lower"},
      {"search.suggested_per_op", "count", "lower"},
      {"search.evaluated_per_op", "count", "lower"},
      {"search.cache_hit_ratio", "ratio", "higher"},
      {"search.colocation_us", "us", "lower"},
      {"search.serialize_state_ms", "ms", "lower"},
      {"support.durable.save_ms", "ms", "lower"},
      {"service.checkpoints_per_job", "count", "lower"},
      {"service.queue_wait_ms.p50", "ms", "lower"},
      {"service.run_ms.p50", "ms", "lower"},
      {"service.store_bytes_per_job", "bytes", "lower"},
      {"service.polls_per_job", "count", "lower"},
      {"service.handle_us.submit_cached", "us", "lower"},
      {"service.handle_us.status", "us", "lower"},
      {"service.handle_us.result", "us", "lower"},
      {"service.transport_us", "us", "lower"},
      {"support.json.parse_us", "us", "lower"},
      {"io.graph_parse_us", "us", "lower"},
      {"io.machine_parse_us", "us", "lower"},
      {"service.result_cache_hit_ratio", "ratio", "higher"},
  };
  return specs;
}

std::string render_result_line(bool correct, std::size_t attempted,
                               std::size_t failed,
                               const std::vector<MetricSpec>& specs,
                               const std::map<std::string, double>& values) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    if (!valid_metric_name(spec.name))
      throw std::logic_error("invalid metric name: " + spec.name);
    const auto it = values.find(spec.name);
    if (it == values.end())
      throw std::logic_error("metric " + spec.name + " was not measured");
    if (!std::isfinite(it->second))
      throw std::logic_error("metric " + spec.name + " is not finite");
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + spec.name + "\":{\"value\":" +
               automap::json_double(it->second) + ",\"unit\":\"" + spec.unit +
               "\"}";
  }
  return std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{" + metrics +
         "}}";
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace perfbench
