#pragma once

// Random but well-formed task graphs and valid mappings for property
// tests: the fuzz properties, the reference-simulator comparison and the
// mapping-key properties draw from the same generators.

#include <array>
#include <string>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/support/rng.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {

/// Random but well-formed task graph: a few regions, collections with
/// plausible overlaps, tasks in a chainable order, RAW edges from earlier
/// writers and a loop-carried back edge.
inline TaskGraph random_graph(Rng& rng) {
  TaskGraph g;
  const int num_regions = 1 + static_cast<int>(rng.uniform_index(3));
  std::vector<RegionId> regions;
  std::vector<CollectionId> collections;
  for (int r = 0; r < num_regions; ++r) {
    const std::int64_t extent = 1000 + rng.uniform_index(100000);
    const RegionId region = g.add_region(
        "region" + std::to_string(r), Rect::line(0, extent - 1),
        8 << rng.uniform_index(4));
    regions.push_back(region);
    const int num_cols = 1 + static_cast<int>(rng.uniform_index(4));
    for (int c = 0; c < num_cols; ++c) {
      // Random sub-range; later collections may overlap earlier ones.
      const std::int64_t lo = rng.uniform_index(extent);
      const std::int64_t hi =
          lo + rng.uniform_index(static_cast<std::uint64_t>(extent - lo));
      collections.push_back(g.add_collection(
          region, "col_r" + std::to_string(r) + "_" + std::to_string(c),
          Rect::line(lo, hi)));
    }
  }

  const int num_tasks = 2 + static_cast<int>(rng.uniform_index(8));
  std::vector<TaskId> tasks;
  for (int t = 0; t < num_tasks; ++t) {
    std::vector<CollectionUse> args;
    const int num_args = 1 + static_cast<int>(rng.uniform_index(4));
    for (int a = 0; a < num_args; ++a) {
      const Privilege priv =
          std::array{Privilege::kReadOnly, Privilege::kWriteOnly,
                     Privilege::kReadWrite, Privilege::kReduce}
              [rng.uniform_index(4)];
      args.push_back({collections[rng.uniform_index(collections.size())],
                      priv, 0.1 + 0.9 * rng.uniform()});
    }
    TaskCost cost{.cpu_seconds_per_point = rng.uniform(1e-6, 1e-3)};
    if (rng.bernoulli(0.8))
      cost.gpu_seconds_per_point = cost.cpu_seconds_per_point / 50.0;
    tasks.push_back(g.add_task("task" + std::to_string(t),
                               1 + static_cast<int>(rng.uniform_index(16)),
                               cost, std::move(args)));
  }

  // RAW edges: forward in task order only (acyclic), through overlapping
  // collection pairs actually used by the endpoint tasks.
  for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const GroupTask& prod = g.task(tasks[i]);
      const GroupTask& cons = g.task(tasks[j]);
      const CollectionUse& pu = prod.args[rng.uniform_index(prod.args.size())];
      const CollectionUse& cu = cons.args[rng.uniform_index(cons.args.size())];
      const std::uint64_t overlap =
          g.overlap_bytes(pu.collection, cu.collection);
      if (overlap == 0) continue;
      g.add_dependence({.producer = tasks[i],
                        .consumer = tasks[j],
                        .producer_collection = pu.collection,
                        .consumer_collection = cu.collection,
                        .bytes = overlap,
                        .cross_iteration = rng.bernoulli(0.2),
                        .internode_fraction =
                            pu.collection == cu.collection ? 0.0 : 1.0});
    }
  }
  g.validate();
  return g;
}

/// A random valid mapping: a processor kind the task has a variant for,
/// random distribution and layout, and per argument a random addressable
/// memory followed by random addressable fallbacks.
inline Mapping random_mapping(const TaskGraph& graph,
                              const MachineModel& machine, Rng& rng) {
  Mapping m(graph);
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = m.at(task.id);
    tm.proc = task.cost.has_gpu_variant() && rng.bernoulli(0.6)
                  ? ProcKind::kGpu
                  : ProcKind::kCpu;
    tm.distribute = rng.bernoulli(0.6);
    tm.blocked = rng.bernoulli(0.4);
    const std::vector<MemKind> kinds =
        machine.memories_addressable_by(tm.proc);
    for (MemPriority& list : m.memories(task.id)) {
      list.clear();
      list.push_back(kinds[rng.uniform_index(kinds.size())]);
      for (const MemKind kind : kinds)
        if (kind != list.front() && rng.bernoulli(0.5)) list.push_back(kind);
    }
  }
  return m;
}

}  // namespace automap
