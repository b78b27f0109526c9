#include "src/sim/report.hpp"

#include <algorithm>

#include "src/support/error.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

namespace {

bool is_copy_leg(const TraceEvent& event) {
  return event.kind == TraceEvent::Kind::kCopy ||
         event.cause == TraceEvent::Cause::kCopyRetry;
}

}  // namespace

std::string trace_resource(const TraceEvent& event) {
  if (!is_copy_leg(event)) return std::string(to_string(event.proc)) + " pool";
  if (event.inter_node) return "network";
  return "channel " + std::string(to_string(event.src)) + "-" +
         std::string(to_string(event.dst));
}

std::string trace_name(const TaskGraph& graph, const TraceEvent& event) {
  // By TraceEvent::Cause.
  static constexpr const char* kPrefix[] = {"", "straggler: ", "crash: ",
                                            "copy fault: "};
  std::string name = graph.task(event.task).name;
  if (is_copy_leg(event))
    name = std::string(to_string(event.src)) + "->" +
           std::string(to_string(event.dst)) + " for " + name;
  return kPrefix[static_cast<std::size_t>(event.cause)] + name;
}

std::vector<TaskTimeBreakdown> task_times(const TaskGraph& graph,
                                          const ExecutionReport& report) {
  AM_REQUIRE(!report.trace.empty(),
             "report has no events; only Simulator::run records them");
  std::vector<TaskTimeBreakdown> times(graph.num_tasks());
  for (std::size_t i = 0; i < times.size(); ++i) times[i].task = TaskId(i);
  for (const TraceEvent& e : report.trace) {
    if (e.kind != TraceEvent::Kind::kTask) continue;
    AM_REQUIRE(e.task.index() < times.size(), "report does not match graph");
    TaskTimeBreakdown& t = times[e.task.index()];
    t.proc = e.proc;
    t.busy_seconds += e.duration_s;
    t.copy_wait_seconds += e.copy_wait_s;
    t.launch_overhead_seconds += e.launch_s;
    t.runtime_overhead_seconds += e.runtime_s;
  }
  for (TaskTimeBreakdown& t : times) {
    t.busy_seconds /= report.iterations;
    t.copy_wait_seconds /= report.iterations;
    t.launch_overhead_seconds /= report.iterations;
    t.runtime_overhead_seconds /= report.iterations;
    t.compute_seconds =
        std::max(0.0, t.busy_seconds - t.launch_overhead_seconds -
                          t.runtime_overhead_seconds);
  }
  return times;
}

}  // namespace automap
