#pragma once

// Offline consumers of the provenance journal (docs/file_formats.md):
//
//   render_explain — per-decision provenance. Replays the accepted-move
//   chain of a journal onto the recorded starting mapping (verifying the
//   recorded mapping hashes along the way) and renders, for every task and
//   every collection argument, the final (distribution, processor, memory)
//   decision together with the accepted move that produced it — its move
//   number, rotation, makespan delta, and, for decisions that were dragged
//   along rather than chosen, the co-location constraint that forced them.
//
//   replay_journal — convergence re-render + drift cross-check. Re-renders
//   the search telemetry (counters, rotations, incumbent sparkline) purely
//   from the journal, then reconstructs the recorded search configuration,
//   reruns the search journal-free, and compares the fresh incumbent
//   trajectory, final best, and winning mapping against the recorded ones.
//   Any difference means the journal and the code have drifted apart.

#include <string>

#include "src/machine/machine.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Renders decision provenance for the journal's best finalized search
/// segment. Throws Error on malformed journals, schema-version mismatches,
/// or when a recorded post-move mapping hash disagrees with the replayed
/// chain (a corrupted or hand-edited journal).
[[nodiscard]] std::string render_explain(const TaskGraph& graph,
                                         const std::string& journal_text);

struct ReplayOutcome {
  /// True when the fresh run disagreed with the journal anywhere.
  bool drift = false;
  /// Human-readable re-rendered telemetry plus the cross-check verdict.
  std::string rendering;
};

/// Reruns the journal's recorded search and cross-checks it. Requires a
/// single-search journal (exactly one search_begin) that was not seeded
/// from a profiles database — that depends on state the journal does not
/// carry. A resumed search's journal is complete (resume re-runs the
/// search against its checkpoint log), so it replays like any other.
[[nodiscard]] ReplayOutcome replay_journal(const MachineModel& machine,
                                           const TaskGraph& graph,
                                           const std::string& journal_text);

}  // namespace automap
