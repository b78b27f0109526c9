#pragma once

// Mapping representation (paper §2, §3.1, §3.2).
//
// After AutoMap's factorization, a mapping assigns to every group task t a
// distribution flag d and a processor kind k_p, and to every collection
// argument c of t a memory kind k_m:  f(t, c) = (d, k_p, k_m).  Following
// the §3.1 generalization, each argument actually carries a *priority list*
// of memory kinds; the first kind whose concrete memory can hold the data is
// used, which is how the memory-constrained experiments avoid hard failures.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/support/error.hpp"
#include "src/support/id.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class LineReader;

/// Memory priority list for one collection argument. Usually size one; the
/// memory-constrained mode appends fallbacks. A list names each kind at
/// most once, so it holds at most kNumMemKinds entries, stored inline: the
/// list is trivially copyable and copying a mapping allocates nothing per
/// argument. The slots past size() are always zero, so a list's bytes are
/// its value (Mapping::key reads them). Offers the vector operations its
/// callers use.
class MemPriority {
 public:
  MemPriority() = default;
  MemPriority(std::initializer_list<MemKind> kinds) {
    for (const MemKind kind : kinds) push_back(kind);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Element access goes through a span of the live entries, so a
  // -D_GLIBCXX_ASSERTIONS build checks every index against size().
  [[nodiscard]] const MemKind& operator[](std::size_t i) const {
    return live()[i];
  }
  [[nodiscard]] MemKind& front() { return live().front(); }
  [[nodiscard]] const MemKind& front() const { return live().front(); }
  [[nodiscard]] const MemKind* begin() const { return kinds_.data(); }
  [[nodiscard]] const MemKind* end() const { return kinds_.data() + size_; }

  void push_back(MemKind kind) {
    AM_REQUIRE(size_ < kNumMemKinds,
               "memory priority list already holds every memory kind");
    kinds_[size_++] = kind;
  }
  void clear() {
    kinds_ = {};
    size_ = 0;
  }
  void assign(std::size_t count, MemKind kind) {
    clear();
    for (std::size_t i = 0; i < count; ++i) push_back(kind);
  }

  // The dead slots are zero, so comparing every slot compares the lists.
  bool operator==(const MemPriority&) const = default;

 private:
  [[nodiscard]] std::span<MemKind> live() { return {kinds_.data(), size_}; }
  [[nodiscard]] std::span<const MemKind> live() const {
    return {kinds_.data(), size_};
  }

  std::array<MemKind, kNumMemKinds> kinds_{};
  std::uint8_t size_ = 0;
};

/// Kind-level decisions of one group task. Its arguments' memory priority
/// lists live in the mapping's flat list (Mapping::memories).
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

  bool operator==(const TaskMapping&) const = default;
};

/// A complete mapping for a task graph: one TaskMapping per task and one
/// priority list per collection argument, indexed by the graph's flat
/// argument ids (TaskGraph::arg_offsets). A copy allocates three times.
class Mapping {
 public:
  Mapping() = default;
  /// Creates a mapping shaped after the graph: every task distributed on
  /// the GPU, every argument in FrameBuffer.
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
  /// Priority lists of task `id`'s arguments, aligned with GroupTask::args.
  [[nodiscard]] std::span<MemPriority> memories(TaskId id) {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return {memories_.data() + arg_off_[id.index()],
            memories_.data() + arg_off_[id.index() + 1]};
  }
  [[nodiscard]] std::span<const MemPriority> memories(TaskId id) const {
    AM_REQUIRE(id.index() < tasks_.size(), "task id out of range");
    return {memories_.data() + arg_off_[id.index()],
            memories_.data() + arg_off_[id.index() + 1]};
  }
  /// Copies task `id`'s decisions and memory lists from the equal-shaped
  /// `other`. (Assigning at(id) copies the decisions only.)
  void copy_task(TaskId id, const Mapping& other);

  /// Primary (first-priority) memory kind of argument `arg` of task `id`.
  /// Inline, like at(): the co-location fixed point reads and writes
  /// primaries of every proposal.
  [[nodiscard]] MemKind primary_memory(TaskId id, std::size_t arg) const {
    const auto mems = memories(id);
    AM_REQUIRE(arg < mems.size(), "argument index out of range");
    AM_REQUIRE(!mems[arg].empty(), "empty memory priority list");
    return mems[arg].front();
  }
  void set_primary_memory(TaskId id, std::size_t arg, MemKind kind) {
    const auto mems = memories(id);
    AM_REQUIRE(arg < mems.size(), "argument index out of range");
    if (mems[arg].empty()) {
      mems[arg] = {kind};
    } else {
      mems[arg].front() = kind;
    }
  }

  /// Constraint 1 (§4.2): every argument's primary memory kind must be
  /// addressable by the task's processor kind, and the task must have a
  /// variant for that processor kind. Returns human-readable violations;
  /// empty means valid.
  [[nodiscard]] std::vector<std::string> violations(
      const TaskGraph& graph, const MachineModel& machine) const;
  [[nodiscard]] bool valid(const TaskGraph& graph,
                           const MachineModel& machine) const;

  /// Structural hash: only kind-level decisions participate, and `blocked`
  /// only when `distribute` is set. Its value seeds every run's noise and
  /// fault streams and names candidates on disk (journals, checkpoint
  /// logs, profiles export order), so it must never change.
  [[nodiscard]] std::uint64_t hash() const;
  /// Identity key of a mapping of this graph for in-memory lookups: it
  /// covers exactly the decisions hash() absorbs, normalized the same way,
  /// so equal mappings have equal keys, at a fraction of hash()'s cost.
  /// Never stored or printed; its values may change between builds.
  [[nodiscard]] std::uint64_t key() const;

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
  std::vector<std::uint32_t> arg_off_;  // the graph's arg_offsets()
  std::vector<MemPriority> memories_;   // by flat argument id
};

}  // namespace automap
