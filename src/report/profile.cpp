#include "src/report/profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace automap {

namespace {

/// A resource is a processor pool iff the simulator labeled it "<kind> pool".
bool is_pool_resource(const std::string& resource) {
  return resource.size() >= 4 &&
         resource.compare(resource.size() - 4, 4, "pool") == 0;
}

/// Walks the trace backwards from the event that ends last: each step's
/// predecessor is an event ending exactly when the step starts — the
/// simulator computes every start as max(data ready, resource free), both of
/// which are some earlier event's end (or 0), so the chain is gap-free.
std::vector<CriticalPathStep> extract_critical_path(
    const std::vector<TraceEvent>& trace, double makespan) {
  const double eps = 1e-9 * std::max(makespan, 1e-12);
  auto end_of = [&](std::size_t i) {
    return trace[i].start_s + trace[i].duration_s;
  };
  // Events by end time; stable, so equal ends keep trace order.
  std::vector<std::uint32_t> by_end(trace.size());
  std::iota(by_end.begin(), by_end.end(), 0u);
  std::stable_sort(by_end.begin(), by_end.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return end_of(a) < end_of(b);
                   });

  std::vector<std::size_t> chain;
  if (trace.empty()) return {};
  std::size_t cur = by_end.back();
  chain.push_back(cur);
  // Each step moves strictly earlier in time, so the chain length is
  // bounded by the trace size; the guard protects against zero-duration
  // event cycles only.
  while (chain.size() <= trace.size()) {
    const double target = trace[cur].start_s;
    if (target <= eps) break;  // reached the start of the run
    // Candidates whose end falls within [target - eps, target + eps]: the
    // longest one is the binding predecessor (ties broken by trace order
    // for determinism).
    auto lo = std::lower_bound(by_end.begin(), by_end.end(), target - eps,
                               [&](std::uint32_t i, double v) {
                                 return end_of(i) < v;
                               });
    std::size_t best = trace.size();
    for (auto it = lo; it != by_end.end() && end_of(*it) <= target + eps;
         ++it) {
      if (*it == cur) continue;
      if (trace[*it].start_s >= target - eps) continue;  // no progress
      if (best == trace.size() ||
          trace[*it].duration_s > trace[best].duration_s)
        best = *it;
    }
    if (best == trace.size()) break;  // start was a plain data-ready gap
    cur = best;
    chain.push_back(cur);
  }

  std::reverse(chain.begin(), chain.end());
  std::vector<CriticalPathStep> path;
  path.reserve(chain.size());
  for (const std::size_t i : chain) {
    const TraceEvent& e = trace[i];
    path.push_back({.kind = e.kind,
                    .name = e.name,
                    .resource = e.resource,
                    .iteration = e.iteration,
                    .start_s = e.start_s,
                    .duration_s = e.duration_s});
  }
  return path;
}

}  // namespace

ExecutionProfile compute_profile(const TaskGraph& graph,
                                 const ExecutionReport& report) {
  AM_REQUIRE(report.ok, "cannot profile a failed run");
  AM_REQUIRE(!report.trace.empty(),
             "report has no trace; run the simulator with "
             "SimOptions::record_trace");
  AM_REQUIRE(report.tasks.size() == graph.num_tasks(),
             "report does not match graph");

  ExecutionProfile p;
  p.makespan_s = report.total_seconds;
  p.iterations = report.iterations;
  p.energy_joules = report.energy_joules;
  p.intra_node_copy_bytes = report.intra_node_copy_bytes;
  p.inter_node_copy_bytes = report.inter_node_copy_bytes;

  // Per-resource busy accounting. Events on one resource never overlap
  // (each pool/channel is a serialized busy-until state in the simulator).
  // kFault annotations overlap the task/copy they describe, so counting
  // them would double-book the resource; they feed the fault attribution
  // totals instead.
  std::map<std::string, ResourceUsage> rows;
  for (const TraceEvent& e : report.trace) {
    if (e.kind == TraceEvent::Kind::kFault) {
      ++p.fault_events;
      p.fault_lost_s += e.duration_s;
      continue;
    }
    ResourceUsage& row = rows[e.resource];
    if (row.events == 0) {
      row.resource = e.resource;
      row.is_processor = is_pool_resource(e.resource);
    }
    row.busy_seconds += e.duration_s;
    row.bytes += e.bytes;
    ++row.events;
  }
  for (auto& [name, row] : rows) {
    row.utilization =
        p.makespan_s > 0.0 ? row.busy_seconds / p.makespan_s : 0.0;
    p.resources.push_back(row);
  }
  std::stable_sort(p.resources.begin(), p.resources.end(),
                   [](const ResourceUsage& a, const ResourceUsage& b) {
                     return a.busy_seconds > b.busy_seconds;
                   });

  // Per-task breakdown from the report's per-iteration averages. The noise
  // multiplier applies to the whole duration while the overhead terms are
  // recorded un-noised, so clamp the residual at zero.
  for (const TaskReport& tr : report.tasks) {
    TaskTimeBreakdown b;
    b.task = tr.task;
    b.proc = tr.proc;
    b.busy_seconds = tr.compute_seconds;
    b.launch_overhead_seconds = tr.launch_overhead_seconds;
    b.runtime_overhead_seconds = tr.runtime_overhead_seconds;
    b.compute_seconds =
        std::max(0.0, tr.compute_seconds - tr.launch_overhead_seconds -
                          tr.runtime_overhead_seconds);
    b.copy_wait_seconds = tr.copy_wait_seconds;
    p.tasks.push_back(b);
  }
  std::stable_sort(p.tasks.begin(), p.tasks.end(),
                   [](const TaskTimeBreakdown& a, const TaskTimeBreakdown& b) {
                     return a.busy_seconds > b.busy_seconds;
                   });

  if (p.fault_events == 0) {
    p.critical_path = extract_critical_path(report.trace, p.makespan_s);
  } else {
    // Fault annotations are not schedulable work; walking through one would
    // corrupt the back-to-back chain. Filter them out first.
    std::vector<TraceEvent> timeline;
    timeline.reserve(report.trace.size() - p.fault_events);
    for (const TraceEvent& e : report.trace)
      if (e.kind != TraceEvent::Kind::kFault) timeline.push_back(e);
    p.critical_path = extract_critical_path(timeline, p.makespan_s);
  }
  if (!p.critical_path.empty()) {
    const CriticalPathStep& last = p.critical_path.back();
    p.critical_path_s =
        last.start_s + last.duration_s - p.critical_path.front().start_s;
    for (const CriticalPathStep& s : p.critical_path) {
      (s.kind == TraceEvent::Kind::kTask ? p.critical_task_s
                                         : p.critical_copy_s) += s.duration_s;
    }
  }
  return p;
}

std::string render_profile(const TaskGraph& graph,
                           const ExecutionProfile& p) {
  std::ostringstream os;
  os << "profile: makespan " << format_seconds(p.makespan_s) << " over "
     << p.iterations << " iterations, energy "
     << format_fixed(p.energy_joules, 1) << " J\n"
     << "copies/iter: intra-node " << format_bytes(p.intra_node_copy_bytes)
     << ", inter-node " << format_bytes(p.inter_node_copy_bytes) << "\n\n";

  os << "resource utilization (busy share of makespan):\n";
  Table resources({"resource", "busy", "util", "events", "bytes"});
  for (const ResourceUsage& r : p.resources) {
    resources.add_row({r.resource, format_seconds(r.busy_seconds),
                       format_fixed(100.0 * r.utilization, 1) + "%",
                       std::to_string(r.events),
                       r.is_processor ? "-" : format_bytes(r.bytes)});
  }
  resources.print(os);

  os << "\nper-task time breakdown (per iteration):\n";
  Table tasks({"task", "proc", "busy", "compute", "launch", "runtime",
               "copy wait"});
  for (const TaskTimeBreakdown& b : p.tasks) {
    tasks.add_row({graph.task(b.task).name, std::string(to_string(b.proc)),
                   format_seconds(b.busy_seconds),
                   format_seconds(b.compute_seconds),
                   format_seconds(b.launch_overhead_seconds),
                   format_seconds(b.runtime_overhead_seconds),
                   format_seconds(b.copy_wait_seconds)});
  }
  tasks.print(os);

  os << "\ncritical path: " << format_seconds(p.critical_path_s) << " ("
     << format_seconds(p.critical_task_s) << " tasks, "
     << format_seconds(p.critical_copy_s) << " copies, "
     << p.critical_path.size() << " steps)\n";
  // The full chain repeats per iteration; show the last iteration's steps.
  const int last_iter =
      p.critical_path.empty() ? 0 : p.critical_path.back().iteration;
  for (const CriticalPathStep& s : p.critical_path) {
    if (s.iteration != last_iter) continue;
    os << "  " << format_fixed(s.start_s, 6) << "s +"
       << format_seconds(s.duration_s) << "  ["
       << (s.kind == TraceEvent::Kind::kTask   ? "task"
           : s.kind == TraceEvent::Kind::kCopy ? "copy"
                                               : "fault")
       << "] " << s.name << " on " << s.resource << "\n";
  }
  if (p.fault_events > 0) {
    os << "\ninjected faults: " << p.fault_events << " events, "
       << format_seconds(p.fault_lost_s) << " lost\n";
  }
  return os.str();
}

}  // namespace automap
