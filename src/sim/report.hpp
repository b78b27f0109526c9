#pragma once

// Execution reports produced by the simulator — the "performance profiles"
// AutoMap's dynamic analysis consumes (paper §3, Figure 4).

#include <cstdint>
#include <string>
#include <vector>

#include "src/machine/kinds.hpp"
#include "src/support/id.hpp"

namespace automap {

class TaskGraph;

/// Memory-kind footprint actually allocated by a run.
struct MemoryFootprint {
  MemKind kind = MemKind::kSystem;
  /// Peak bytes resident in the fullest single allocation of this kind.
  std::uint64_t peak_instance_bytes = 0;
  /// Capacity of one allocation of this kind.
  std::uint64_t capacity_bytes = 0;
};

/// One scheduled activity of a Simulator::run, in the order the event loop
/// committed it. Events hold ids only; trace_name and trace_resource render
/// them as text.
struct TraceEvent {
  /// kFault events annotate injected faults (straggler inflation, crash
  /// points, copy re-issues); their window overlaps the affected task/copy
  /// event, so consumers must not count them toward resource busy time.
  enum class Kind : std::uint8_t { kTask, kCopy, kFault };
  /// The fault a kFault event annotates (kNone for task and copy events).
  enum class Cause : std::uint8_t { kNone, kStraggler, kCrash, kCopyRetry };
  Kind kind = Kind::kTask;
  Cause cause = Cause::kNone;
  /// Processor pool of task, straggler and crash events.
  ProcKind proc = ProcKind::kCpu;
  /// Copy leg of copy and copy-retry events: source and destination memory
  /// kinds, and whether it crossed the network.
  MemKind src = MemKind::kSystem;
  MemKind dst = MemKind::kSystem;
  bool inter_node = false;
  /// The task; for a copy leg, the task that consumes the data.
  TaskId task;
  int iteration = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  /// Bytes moved (copy events only).
  std::uint64_t bytes = 0;
  /// Task events only: time the task's data arrived after its pool was
  /// free, and the launch-overhead and runtime-overhead shares of
  /// duration_s (before noise).
  double copy_wait_s = 0.0;
  double launch_s = 0.0;
  double runtime_s = 0.0;
};

/// Trace row of an event: "<proc> pool" for task, straggler and crash
/// events; "network" for an inter-node copy leg; "channel <src>-<dst>" for
/// an intra-node one.
[[nodiscard]] std::string trace_resource(const TraceEvent& event);
/// Label of an event: the task name, "<src>-><dst> for <task>" for a copy
/// leg, and "straggler: ", "crash: " or "copy fault: " before the label of
/// the event a fault annotates.
[[nodiscard]] std::string trace_name(const TaskGraph& graph,
                                     const TraceEvent& event);

/// Tally of the faults the simulator injected into one run (all zero when
/// SimOptions::faults is disabled).
struct FaultCounts {
  /// Transient task crashes (each aborts the run).
  int crashes = 0;
  /// Straggler events (task duration multiplied, run continues).
  int stragglers = 0;
  /// Transient memory-pressure windows observed (fatal only when the
  /// mapping's peak footprint exceeds the reduced capacity).
  int mem_pressure = 0;
  /// Copy legs that failed once and were re-issued.
  int copy_retries = 0;
  /// Simulated seconds consumed by fault effects: straggler inflation,
  /// partial work lost to a crash, and re-issued copy attempts.
  double lost_seconds = 0.0;
};

/// Result of simulating one execution of the application under a mapping.
struct ExecutionReport {
  /// True when every collection argument found a memory with capacity; when
  /// false the run failed with an out-of-memory error and the timing fields
  /// are meaningless (the driver skips such mappings, §5.2).
  bool ok = false;
  std::string failure;
  /// Set (with ok == false) when the failure was an injected transient
  /// fault — a retry with a different seed may succeed, unlike the
  /// deterministic placement-time OOM above. `total_seconds` then holds the
  /// simulated clock at the abort (work a retrying driver has to pay for).
  bool transient = false;

  /// True when the run was abandoned because the simulated clock provably
  /// exceeded the caller's time bound (incumbent-bounded pruning). The run
  /// still counts as ok; `total_seconds` then holds the clock value that
  /// crossed the bound — a strict lower bound on the true makespan — and
  /// every other field is partial and must not be consumed.
  bool censored = false;

  /// End-to-end wall time of the simulated run (seconds); for censored
  /// runs, the bound-crossing clock value (a lower bound on the true
  /// makespan).
  double total_seconds = 0.0;
  /// Main-loop iterations executed.
  int iterations = 0;
  /// Scheduling events the run processed: one per task execution (crashed
  /// and bound-crossing tasks included — their work was performed) plus one
  /// per copy leg. The true denominator of simulator throughput
  /// (events/second), reported by the BM_SimThroughput* benchmarks and the
  /// automap_sim_events_total counter.
  std::uint64_t events = 0;

  /// Bytes moved by inferred copies, per iteration.
  std::uint64_t intra_node_copy_bytes = 0;
  std::uint64_t inter_node_copy_bytes = 0;

  /// Estimated processor energy of the whole run (busy time x per-instance
  /// power, plus a fixed per-byte cost for copies) — the alternative
  /// objective of §3.3.
  double energy_joules = 0.0;

  std::vector<MemoryFootprint> footprints;

  /// Count of collection arguments that were demoted to a lower-priority
  /// memory kind because the first choice was full (§3.1 priority lists).
  int demoted_args = 0;

  /// Injected-fault tally for this run (zeros when fault injection is off).
  FaultCounts faults;

  /// Every task, copy and fault event of the run, in commit order. Only
  /// Simulator::run records them; run_prepared and run_repeats leave this
  /// empty.
  std::vector<TraceEvent> trace;
};

/// Per-iteration times of one group task.
struct TaskTimeBreakdown {
  TaskId task;
  ProcKind proc = ProcKind::kCpu;
  /// Total pool busy time per iteration.
  double busy_seconds = 0.0;
  /// Pure compute + memory-access share (busy minus the overhead terms).
  double compute_seconds = 0.0;
  /// Per-wave launch overhead share.
  double launch_overhead_seconds = 0.0;
  /// Mapping-independent per-launch runtime cost share.
  double runtime_overhead_seconds = 0.0;
  /// Time blocked on incoming copies before the pool could start.
  double copy_wait_seconds = 0.0;
};

/// Each task's times, indexed by task id: its task events in `report.trace`
/// summed in event order and divided by the iteration count. The noise
/// factor scales the whole duration while the overhead shares are recorded
/// before noise, so compute_seconds is clamped at zero. Requires a
/// recorded run (Simulator::run).
[[nodiscard]] std::vector<TaskTimeBreakdown> task_times(
    const TaskGraph& graph, const ExecutionReport& report);

}  // namespace automap
