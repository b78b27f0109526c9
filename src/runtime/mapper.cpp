#include "src/runtime/mapper.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace automap {

Mapping Mapper::map_all(const TaskGraph& graph, const MachineModel& machine) {
  Mapping mapping(graph);
  for (const GroupTask& task : graph.tasks())
    mapping.at(task.id) =
        map_task(task, graph, machine, mapping.memories(task.id));
  const auto violations = mapping.violations(graph, machine);
  AM_CHECK(violations.empty(),
           "mapper " + name() + " produced an invalid mapping: " +
               (violations.empty() ? "" : violations.front()));
  return mapping;
}

TaskMapping DefaultMapper::map_task(const GroupTask& task,
                                    const TaskGraph& graph,
                                    const MachineModel& machine,
                                    std::span<MemPriority> memories) {
  (void)graph;
  const bool gpu =
      task.cost.has_gpu_variant() && machine.has_proc_kind(ProcKind::kGpu);
  const TaskMapping tm{.proc = gpu ? ProcKind::kGpu : ProcKind::kCpu};
  std::ranges::fill(memories, MemPriority{machine.best_memory_for(tm.proc)});
  return tm;
}

}  // namespace automap
