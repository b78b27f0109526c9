#pragma once

// Coordinate-wise descent (CD, §4.1) and constrained coordinate-wise
// descent (CCD, §4.2; Algorithms 1 and 2 of the paper).
//
// Both optimize one mapping decision at a time — distribution flag, then
// processor kind, then the memory kind of each collection argument — over
// tasks ordered by measured runtime and collections ordered by size. CCD
// additionally runs N rotations of full CD under *co-location constraints*:
// whenever it moves a collection argument to a memory kind, every
// overlapping collection (and every other use of the same collection) moves
// with it, and tasks whose arguments became unaddressable are pulled to the
// new processor kind, iterating to a fixed point (Algorithm 2). After each
// rotation a fraction of the lightest overlap edges is pruned, so the final
// rotation is plain CD. The constraints let CCD make the coordinated
// multi-collection moves that strictly-improving local search cannot (§4.2).
// CD is that final rotation alone: Algorithm 2 over no edges, which moves
// only the task's own arguments its new processor cannot address.

#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {

/// Plain coordinate-wise descent (Algorithm 1 without line 17).
[[nodiscard]] SearchResult run_cd(const Simulator& sim,
                                  const SearchOptions& options);

/// Constrained coordinate-wise descent (Algorithm 1 + Algorithm 2).
[[nodiscard]] SearchResult run_ccd(const Simulator& sim,
                                   const SearchOptions& options);

namespace detail {

/// One descent of Algorithm 1 from `start` through `eval`: CCD's rotations
/// over the pruned overlap graph when `constrained`, else CD's one rotation
/// over no edges. It evaluates the start exactly, then runs the rotations
/// and their checkpoints until they end or the budget runs out. Its
/// rotations are numbered after those already in eval.stats().rotations,
/// so several descents through one evaluator read as one search. The
/// caller owns begin_search and finalize.
void descend(Evaluator& eval, const Simulator& sim,
             const SearchOptions& options, bool constrained,
             const Mapping& start);

/// A collection argument of a task: the unit the co-location map indexes.
struct ArgRef {
  TaskId task;
  std::size_t arg = 0;

  bool operator==(const ArgRef&) const = default;
  auto operator<=>(const ArgRef&) const = default;
};

/// The co-location map O (Algorithm 1 line 5): for every collection
/// argument, by flat id (TaskGraph::arg_offsets), the arguments it must
/// move together with under the current (partially pruned) overlap graph —
/// other uses of the same collection and uses of overlapping collections,
/// in ascending order.
using OverlapMap = std::vector<std::vector<ArgRef>>;

/// Builds O from the still-active overlap edges. `edges` uses collection
/// ids; same-collection coupling is expressed as an edge with a == b.
/// Arguments of tasks in `frozen` (§3.3 subset search) are excluded from
/// every co-location class — they never co-move.
[[nodiscard]] OverlapMap build_overlap_map(
    const TaskGraph& graph, const std::vector<OverlapEdge>& edges,
    const std::vector<TaskId>& frozen = {});

/// Algorithm 2: returns f' = f with (t, arg) mapped to (k, r) and the
/// co-location constraints re-established by fixed-point iteration. `f` is
/// taken by value and repaired in place, so a caller that moves its
/// candidate in builds f' without a second copy.
[[nodiscard]] Mapping colocation_constraints(
    Mapping f, TaskId t, std::size_t arg, ProcKind k, MemKind r,
    const OverlapMap& overlap, const TaskGraph& graph,
    const MachineModel& machine);

/// Tasks ordered by decreasing measured runtime under mapping `f`
/// (Algorithm 1 line 6); ties and failed profiling runs fall back to the
/// static cost estimate.
[[nodiscard]] std::vector<TaskId> tasks_by_runtime(const Simulator& sim,
                                                   const Mapping& f,
                                                   std::uint64_t seed);

/// One decision an accepted placement move changed *beyond* its primary
/// (t, arg) -> (proc, mem) decision: a co-located argument dragged to the
/// same memory, or a task pulled to the new processor kind because the
/// fixed point left it unable to address its arguments. The provenance
/// journal attaches these to every accepted placement move, and `automap
/// explain` renders them as "forced by co-location with ...".
struct ForcedMove {
  TaskId task;
  /// True: the task's processor changed to `proc` (addressability pull).
  /// False: argument `arg`'s primary memory changed to `mem`.
  bool proc_change = false;
  std::size_t arg = 0;
  ProcKind proc = ProcKind::kCpu;
  MemKind mem = MemKind::kSystem;
  /// The changed argument overlaps the primary (t, arg) directly (same
  /// collection or an overlapping one) — versus a transitive fixed-point
  /// consequence or, over an empty map (plain CD), an addressability
  /// repair.
  bool direct = false;
};

/// Complete diff of an accepted placement move against the pre-move
/// incumbent, the primary decision itself excluded. Deterministic
/// task-major order. `overlap` is the active co-location map.
[[nodiscard]] std::vector<ForcedMove> forced_moves(const Mapping& base,
                                                   const Mapping& candidate,
                                                   TaskId t, std::size_t arg,
                                                   const OverlapMap& overlap,
                                                   const TaskGraph& graph);

}  // namespace detail
}  // namespace automap
