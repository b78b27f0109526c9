#pragma once

// Mini-Legion program layer.
//
// Applications are written against this builder in Legion style: declare
// regions, carve collections (sub-rectangles, e.g. interiors and halos) out
// of them, and launch group tasks in program order with per-collection
// read/write privileges. `lower()` performs the runtime's dependence
// analysis — RAW edges carry data, WAR/WAW edges only order — including
// loop-carried dependences for launches inside the application's main loop,
// and produces the acyclic TaskGraph that the simulator executes and the
// AutoMap search optimizes. The per-collection dependence information this
// computes is exactly the runtime feature the paper lists as a prerequisite
// for porting AutoMap to a new task system (§3).

#include <string>
#include <vector>

#include "src/taskgraph/task_graph.hpp"

namespace automap {

class Program {
 public:
  /// Declares a logical region (an index space with an element size).
  RegionId add_region(std::string name, Rect bounds,
                      std::uint64_t bytes_per_element);

  /// Declares a collection: a named sub-rectangle view of a region.
  /// Collections of the same region may overlap (halos, shared/ghost sets).
  CollectionId add_collection(RegionId region, std::string name, Rect rect);

  /// Launches a group task in program order. `in_main_loop` marks launches
  /// inside the iterative main loop: their mutual dependences wrap around
  /// to the next iteration (loop-carried) when no earlier same-iteration
  /// writer exists.
  TaskId launch(std::string name, int num_points, TaskCost cost,
                std::vector<CollectionUse> args, bool in_main_loop = true);

  /// Runs dependence analysis and returns the task graph. May be called
  /// repeatedly; later launches invalidate earlier results.
  [[nodiscard]] TaskGraph lower() const;

 private:
  struct Launch {
    TaskId task;  // index into graph under construction
    bool in_main_loop = true;
  };

  // The program accumulates regions/collections/tasks in a TaskGraph shell
  // (without edges); lower() copies it and adds the dependence edges.
  TaskGraph shell_;
  std::vector<Launch> launches_;
};

}  // namespace automap
