#pragma once

// Execution observability (ROADMAP: make mapping decisions explainable).
//
// The events Simulator::run records (ExecutionReport::trace) hold every task
// wave and copy leg with its resource, start and duration; this module
// digests that buffer into the quantities the paper's analysis sections
// (§5, Figs. 6-8) reason about: per-resource utilization/occupancy (proc
// pools, intra-node channels, the shared interconnect), a per-task time
// breakdown (compute vs launch overhead vs runtime overhead vs copy wait),
// and the critical path through the recorded events — the chain of
// back-to-back activities that ends at the makespan and explains why the
// run is no faster.

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/report.hpp"
#include "src/support/id.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Busy accounting of one trace resource row over the whole run.
struct ResourceUsage {
  /// Trace resource label ("GPU pool", "channel Sys-FB", "network").
  std::string resource;
  /// True for processor pools, false for copy channels / the interconnect.
  bool is_processor = false;
  /// Sum of event durations on this resource (seconds). Events on one
  /// resource never overlap (the simulator serializes each pool and
  /// channel), so busy_seconds <= makespan.
  double busy_seconds = 0.0;
  /// Number of events recorded on this resource.
  std::size_t events = 0;
  /// busy_seconds / makespan, in [0, 1].
  double utilization = 0.0;
  /// Bytes moved through this resource (copies only; 0 for pools).
  std::uint64_t bytes = 0;
};

struct ExecutionProfile {
  double makespan_s = 0.0;
  int iterations = 0;
  /// Run totals copied from the report: processor energy of the whole run
  /// and inferred-copy bytes per iteration.
  double energy_joules = 0.0;
  std::uint64_t intra_node_copy_bytes = 0;
  std::uint64_t inter_node_copy_bytes = 0;

  /// Sorted by busy time, descending.
  std::vector<ResourceUsage> resources;
  /// task_times, sorted by busy time, descending.
  std::vector<TaskTimeBreakdown> tasks;

  /// Chain of back-to-back events ending at the makespan, in chronological
  /// order: each step starts exactly when its predecessor ends (the
  /// simulator's start = max(ready, busy) guarantees such a predecessor
  /// exists down to t = 0).
  std::vector<TraceEvent> critical_path;
  /// End-to-end span of the chain (last end - first start). When the chain
  /// reaches back to t = 0 this equals the makespan.
  double critical_path_s = 0.0;
  /// Span split by what the path was doing.
  double critical_task_s = 0.0;
  double critical_copy_s = 0.0;

  /// Injected-fault attribution (zero without fault injection): kFault
  /// annotation events in the trace and the simulated seconds they lost
  /// (crash re-execution, straggler inflation, copy re-issue). Fault events
  /// overlap the tasks/copies they annotate, so they are excluded from the
  /// busy accounting and the critical path above.
  std::size_t fault_events = 0;
  double fault_lost_s = 0.0;
};

/// Digests a recorded execution report. Requires report.ok and a non-empty
/// trace (a report from Simulator::run).
[[nodiscard]] ExecutionProfile compute_profile(const TaskGraph& graph,
                                               const ExecutionReport& report);

/// Human-readable rendering: run totals, utilization table, per-task
/// breakdown of the hottest tasks, and the critical path.
[[nodiscard]] std::string render_profile(const TaskGraph& graph,
                                         const ExecutionProfile& profile);

}  // namespace automap
