#pragma once

// Mapper interface, mirroring Legion's dynamic mapping API (§3).
//
// A Mapper decides, per group task, the distribution flag, processor kind
// and per-argument memory kinds. The runtime (here: the simulator harness)
// queries the mapper for every task.

#include <memory>
#include <span>
#include <string>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

class Mapper {
 public:
  virtual ~Mapper() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Kind-level mapping decision for one group task: fills `memories`, one
  /// priority list per collection argument (aligned with task.args), and
  /// returns the task's distribution and processor decisions.
  [[nodiscard]] virtual TaskMapping map_task(
      const GroupTask& task, const TaskGraph& graph,
      const MachineModel& machine, std::span<MemPriority> memories) = 0;

  /// Maps every task of a graph (the paper's offline usage).
  [[nodiscard]] Mapping map_all(const TaskGraph& graph,
                                const MachineModel& machine);
};

/// Legion's default mapper heuristics (§5 "Baselines"), which are also the
/// search's §4.1 starting point: distribute group tasks, place every task
/// on a GPU when it has a GPU variant, and place each collection in the
/// highest-bandwidth memory addressable from the chosen processor
/// (Frame-Buffer for GPU tasks).
class DefaultMapper final : public Mapper {
 public:
  [[nodiscard]] std::string name() const override { return "DefaultMapper"; }
  [[nodiscard]] TaskMapping map_task(
      const GroupTask& task, const TaskGraph& graph,
      const MachineModel& machine, std::span<MemPriority> memories) override;
};

}  // namespace automap
