#pragma once

// Run comparison and search-telemetry rendering: why one mapping is faster
// than another, and how a search converged. The digest of a single run
// (pool busy time, copy wait, critical path, energy, copy volume) is
// src/report/profile.hpp.

#include <string>
#include <vector>

#include "src/search/search.hpp"
#include "src/sim/report.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Explains the performance difference between two runs of the same graph
/// (e.g. default vs AutoMap's mapping): per-task compute/wait deltas and
/// copy-volume changes, largest effects first.
[[nodiscard]] std::string compare_runs(const TaskGraph& graph,
                                       const ExecutionReport& baseline,
                                       const ExecutionReport& improved);

/// Unicode block sparkline of a value series (min flat -> "▁", max ->
/// "█"); empty input renders empty. Shared by the telemetry convergence
/// line and `automap replay`'s offline re-render.
[[nodiscard]] std::string render_sparkline(const std::vector<double>& values);

/// Search telemetry digest of a finished search: counters, profiles-cache
/// hit rate, OOM count, wall vs simulated clocks, a convergence sparkline
/// of the incumbent trajectory, and per-rotation improvement deltas
/// (CCD/CD). The CLI/bench `--telemetry` output. When the search wrote a
/// provenance journal or a metrics dump, pass their paths so the digest
/// points at them.
[[nodiscard]] std::string render_search_telemetry(
    const SearchResult& result, const std::string& journal_path = "",
    const std::string& metrics_path = "");

}  // namespace automap
