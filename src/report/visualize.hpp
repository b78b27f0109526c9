#pragma once

// Mapping and execution visualization.
//
// The paper presents discovered mappings as figures (Figs. 2 and 3): each
// task tagged with its processor kind and each collection argument colored
// by memory kind, with a bar showing the collection's size relative to the
// application's largest. These helpers render the same information as
// monospace text and as Graphviz DOT, and export run timelines in the
// Chrome tracing (about://tracing / Perfetto) JSON format.

#include <concepts>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/mapping/mapping.hpp"
#include "src/search/search.hpp"
#include "src/sim/report.hpp"
#include "src/support/json.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Incremental builder for Chrome tracing JSON ("traceEvents" array,
/// displayTimeUnit ms). Callers declare lanes (thread_name metadata rows),
/// then append complete ("X") and instant ("i") events in any order —
/// Perfetto sorts by timestamp. Times print as json_double prints them.
/// An event's "args" members are written by `args` into the writer; a
/// complete event's may instead be spliced verbatim from `args_json`
/// (valid JSON key/value pairs). Shared by the simulator's execution-trace
/// export and the mapping service's flight-recorder export, so both load
/// side by side.
class ChromeTraceBuilder {
 public:
  ChromeTraceBuilder();
  /// Names row `tid` in the viewer (emits a thread_name metadata event).
  void lane(int tid, const std::string& name);
  /// Complete event: a bar on row `tid` from ts_us lasting dur_us (µs).
  void complete(int tid, const std::string& name, double ts_us, double dur_us,
                const std::string& args_json);
  template <std::invocable<JsonWriter&> Args>
  void complete(int tid, std::string_view name, double ts_us, double dur_us,
                const Args& args) {
    args(begin_event(tid, name, ts_us, dur_us));
    json_.end_object().end_object();
  }
  /// Instant event: a thread-scoped marker on row `tid` at ts_us (µs).
  template <std::invocable<JsonWriter&> Args>
  void instant(int tid, std::string_view name, double ts_us,
               const Args& args) {
    args(begin_event(tid, name, ts_us, std::nullopt));
    json_.end_object().end_object();
  }
  /// The complete JSON document (single trailing newline).
  [[nodiscard]] std::string str() const;

 private:
  /// Opens an event (complete with a duration, instant without) and its
  /// "args" object.
  JsonWriter& begin_event(int tid, std::string_view name, double ts_us,
                          std::optional<double> dur_us);

  JsonWriter json_;
};

/// Fig. 3-style text rendering: one block per task with processor kind,
/// per-argument memory kind letters (S/Z/F) and relative-size bars.
[[nodiscard]] std::string render_mapping(const TaskGraph& graph,
                                         const Mapping& mapping);

/// Graphviz DOT of the dependence graph under a mapping: task nodes shaped
/// by processor kind, collection argument records colored by memory kind,
/// data edges weighted by transferred bytes (cross-iteration edges dashed).
[[nodiscard]] std::string render_mapping_dot(const TaskGraph& graph,
                                             const Mapping& mapping);

/// Chrome tracing JSON ("traceEvents" array of complete events) of the
/// events of a Simulator::run report. Resources become rows (tid);
/// durations are exported in microseconds. A non-empty `trajectory` (the
/// search's incumbent improvements) is overlaid as instant events on a
/// dedicated "search" row (tid 0): each improvement appears at its fraction
/// of the search clock mapped onto the rendered run's duration, tagged with
/// the new best and the simulated search time.
[[nodiscard]] std::string render_chrome_trace(
    const TaskGraph& graph, const ExecutionReport& report,
    const std::vector<TrajectoryPoint>& trajectory = {});

}  // namespace automap
