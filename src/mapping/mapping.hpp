#pragma once

// Mapping representation (paper §2, §3.1, §3.2).
//
// After AutoMap's factorization, a mapping assigns to every group task t a
// distribution flag d and a processor kind k_p, and to every collection
// argument c of t a memory kind k_m:  f(t, c) = (d, k_p, k_m).  Following
// the §3.1 generalization, each argument actually carries a *priority list*
// of memory kinds; the first kind whose concrete memory can hold the data is
// used, which is how the memory-constrained experiments avoid hard failures.

#include <cstdint>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/support/error.hpp"
#include "src/support/id.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class LineReader;

/// Memory priority list for one collection argument. Usually size one; the
/// memory-constrained mode appends fallbacks.
using MemPriority = std::vector<MemKind>;

/// Kind-level mapping of one group task and all of its collection arguments.
struct TaskMapping {
  /// True: points are distributed across all nodes; false: the whole group
  /// runs on the initial leader node (§3.1).
  bool distribute = true;
  /// Point-to-node placement when distributed. AutoMap's runtime logic uses
  /// round-robin (false) and never searches this dimension; hand-written
  /// mappers may use a blocked decomposition (true), which keeps neighbor
  /// exchanges local — the advantage the paper credits Circuit's custom
  /// mapper with (§5 "Results"). Meaningless (and normalized away by
  /// serialization and hashing) when `distribute` is false.
  bool blocked = false;
  ProcKind proc = ProcKind::kGpu;
  /// One priority list per collection argument, aligned with GroupTask::args.
  std::vector<MemPriority> arg_memories;

  bool operator==(const TaskMapping&) const = default;
};

/// A complete mapping for a task graph.
class Mapping {
 public:
  Mapping() = default;
  /// Creates a mapping shaped after the graph: every task gets a default
  /// TaskMapping with one empty-initialized slot per collection argument
  /// (proc = GPU, memory = FrameBuffer, distributed).
  explicit Mapping(const TaskGraph& graph);

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  // Defined inline: the simulator event loop reads task mappings millions
  // of times per search.
  [[nodiscard]] TaskMapping& at(TaskId id) {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return tasks_[id.index()];
  }
  [[nodiscard]] const TaskMapping& at(TaskId id) const {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return tasks_[id.index()];
  }

  /// Primary (first-priority) memory kind of argument `arg` of task `id`.
  [[nodiscard]] MemKind primary_memory(TaskId id, std::size_t arg) const;
  void set_primary_memory(TaskId id, std::size_t arg, MemKind kind);

  /// Constraint 1 (§4.2): every argument's primary memory kind must be
  /// addressable by the task's processor kind, and the task must have a
  /// variant for that processor kind. Returns human-readable violations;
  /// empty means valid.
  [[nodiscard]] std::vector<std::string> violations(
      const TaskGraph& graph, const MachineModel& machine) const;
  [[nodiscard]] bool valid(const TaskGraph& graph,
                           const MachineModel& machine) const;

  /// Structural hash for the profiles database (collision-checked by
  /// equality there). Only kind-level decisions participate.
  [[nodiscard]] std::uint64_t hash() const;

  bool operator==(const Mapping&) const = default;

  /// Serializes to a line-oriented text form:
  ///   task <index> <dist|leader> <CPU|GPU> <mem[,mem...]> ...
  [[nodiscard]] std::string serialize() const;
  /// Parses the output of serialize(). Throws Error on malformed input or
  /// when the shape does not match `graph`.
  [[nodiscard]] static Mapping parse(const std::string& text,
                                     const TaskGraph& graph);
  /// Reads exactly one `task` line per task of `graph`, each index once,
  /// from a reader positioned at the mapping (files that embed mappings:
  /// profiles databases, evaluator state, checkpoints). Throws Error
  /// naming the line on malformed input.
  [[nodiscard]] static Mapping read(LineReader& reader,
                                    const TaskGraph& graph);

  /// Human-readable mapping dump with task/collection names.
  [[nodiscard]] std::string describe(const TaskGraph& graph) const;

  /// Lists the decisions on which two equal-shaped mappings differ.
  [[nodiscard]] std::vector<std::string> diff(const Mapping& other,
                                              const TaskGraph& graph) const;

 private:
  std::vector<TaskMapping> tasks_;
};

}  // namespace automap
