#include "src/report/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/format.hpp"

namespace automap {

std::string compare_runs(const TaskGraph& graph,
                         const ExecutionReport& baseline,
                         const ExecutionReport& improved) {
  AM_REQUIRE(baseline.ok && improved.ok, "cannot compare failed runs");
  AM_REQUIRE(baseline.tasks.size() == improved.tasks.size() &&
                 baseline.tasks.size() == graph.num_tasks(),
             "reports do not match the graph");

  std::ostringstream os;
  os << "total: " << format_seconds(baseline.total_seconds) << " -> "
     << format_seconds(improved.total_seconds) << " ("
     << format_speedup(baseline.total_seconds / improved.total_seconds)
     << ")\n";

  struct Delta {
    TaskId task;
    double seconds;
  };
  std::vector<Delta> deltas;
  for (std::size_t i = 0; i < graph.num_tasks(); ++i) {
    const double d = (baseline.tasks[i].compute_seconds +
                      baseline.tasks[i].copy_wait_seconds) -
                     (improved.tasks[i].compute_seconds +
                      improved.tasks[i].copy_wait_seconds);
    deltas.push_back({TaskId(i), d});
  }
  std::stable_sort(deltas.begin(), deltas.end(),
                   [](const Delta& x, const Delta& y) {
                     return std::abs(x.seconds) > std::abs(y.seconds);
                   });
  os << "largest per-task changes (compute+wait per iter, + = faster):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, deltas.size()); ++i) {
    if (deltas[i].seconds == 0.0) break;
    os << "  " << graph.task(deltas[i].task).name << ": "
       << (deltas[i].seconds > 0 ? "+" : "-")
       << format_seconds(std::abs(deltas[i].seconds)) << "\n";
  }

  auto copy_line = [&](const char* label, std::uint64_t before,
                       std::uint64_t after) {
    if (before == after) return;
    os << "  " << label << " copies/iter: " << format_bytes(before) << " -> "
       << format_bytes(after) << "\n";
  };
  copy_line("intra-node", baseline.intra_node_copy_bytes,
            improved.intra_node_copy_bytes);
  copy_line("inter-node", baseline.inter_node_copy_bytes,
            improved.inter_node_copy_bytes);
  return os.str();
}

std::string render_sparkline(const std::vector<double>& values) {
  static constexpr const char* kBlocks[8] = {"▁", "▂", "▃", "▄",
                                             "▅", "▆", "▇", "█"};
  std::string out;
  if (values.empty()) return out;
  double lo = values.front();
  double hi = values.front();
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo;
  for (const double v : values) {
    if (!std::isfinite(v)) {
      out += "x";  // failed/unbounded point
      continue;
    }
    const int bucket =
        span > 0.0
            ? std::min(7, static_cast<int>((v - lo) / span * 8.0))
            : 0;
    out += kBlocks[bucket];
  }
  return out;
}

std::string render_search_telemetry(const SearchResult& result,
                                    const std::string& journal_path,
                                    const std::string& metrics_path) {
  const SearchStats& s = result.stats;
  std::ostringstream os;
  os << result.algorithm << " telemetry:\n"
     << "  proposals: " << s.suggested << " suggested, " << s.evaluated
     << " evaluated, " << s.invalid << " invalid, " << s.oom << " oom, "
     << s.censored << " censored\n"
     << "  profiles cache: " << s.cache_hits << " hits / " << s.suggested
     << " lookups (" << format_fixed(100 * s.cache_hit_rate(), 1)
     << "% hit rate)\n"
     << "  clocks: simulated " << format_seconds(s.search_time_s) << " ("
     << format_fixed(100 * s.evaluation_fraction(), 0)
     << "% evaluating), wall " << format_seconds(s.wall_time_s) << "\n";
  if (s.transient_failures > 0 || s.retries > 0 || s.quarantined > 0 ||
      s.degraded) {
    os << "  resilience: " << s.transient_failures << " transient failures, "
       << s.retries << " retries, " << s.quarantined << " quarantined"
       << (s.degraded ? ", DEGRADED result" : "") << "\n";
  }
  if (result.trajectory.size() > 1) {
    // Incumbent best over the search, best-first-seen to final: a falling
    // staircase whose step positions show where the improvements happened.
    std::vector<double> bests;
    bests.reserve(result.trajectory.size());
    for (const TrajectoryPoint& p : result.trajectory)
      bests.push_back(p.best_exec_s);
    os << "  convergence: " << render_sparkline(bests) << " ("
       << bests.size() << " incumbents, "
       << format_seconds(bests.front()) << " -> "
       << format_seconds(bests.back()) << ")\n";
  }
  if (!s.rotations.empty()) {
    os << "  rotations (best before -> after, delta):\n";
    for (const RotationTelemetry& r : s.rotations) {
      os << "    #" << r.rotation << ": ";
      if (std::isinf(r.best_before_s))
        os << "(none)";
      else
        os << format_seconds(r.best_before_s);
      os << " -> " << format_seconds(r.best_after_s) << " (-"
         << format_seconds(r.improvement_s()) << "), " << r.evaluated
         << " evaluated, clock " << format_seconds(r.search_time_s) << "\n";
    }
  }
  if (!journal_path.empty())
    os << "  journal: " << journal_path
       << " (inspect with: automap_cli explain / replay)\n";
  if (!metrics_path.empty()) os << "  metrics: " << metrics_path << "\n";
  return os.str();
}

}  // namespace automap
