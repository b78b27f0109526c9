#pragma once

// Task graph model (paper §2).
//
// A program is an acyclic dependence graph whose nodes are *group tasks*
// (sets of independent instances of the same task launched in one operation —
// individual tasks are groups of size one, §3.1) and whose edges are
// per-collection data dependences. Tasks name the *collections* they read and
// write; collections are rectangles over a region's index space, so two
// collections of the same region may overlap (e.g. halo regions), which is
// the structure CCD's co-location constraints exploit.

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/error.hpp"
#include "src/support/id.hpp"
#include "src/taskgraph/rect.hpp"

namespace automap {

enum class Privilege : std::uint8_t {
  kReadOnly,
  kWriteOnly,
  kReadWrite,
  kReduce,
};

[[nodiscard]] constexpr bool reads(Privilege p) {
  return p == Privilege::kReadOnly || p == Privilege::kReadWrite;
}
[[nodiscard]] constexpr bool writes(Privilege p) {
  return p != Privilege::kReadOnly;
}
[[nodiscard]] const char* to_string(Privilege p);

/// A named logical region; collections are sub-rectangles of a region and
/// only collections of the same region can overlap.
struct Region {
  RegionId id;
  std::string name;
  Rect bounds;
  std::uint64_t bytes_per_element = 8;
};

/// A collection: a task-visible view (sub-rectangle) of a region. Collection
/// *arguments* of tasks reference these by id; the paper's "collection
/// argument" count is the number of (task, collection) pairs.
struct Collection {
  CollectionId id;
  RegionId region;
  std::string name;
  Rect rect;

  [[nodiscard]] std::uint64_t volume() const { return rect.volume(); }
};

/// One collection argument of a task.
struct CollectionUse {
  CollectionId collection;
  Privilege privilege = Privilege::kReadOnly;
  /// Fraction of the collection's bytes the task actually touches per
  /// execution (e.g. a halo exchange touches only the boundary).
  double access_fraction = 1.0;
};

/// Per-processor-kind compute cost of one *point* of a group task, on a
/// reference-speed processor, excluding launch overhead and memory access
/// time (both are charged by the simulator from machine parameters).
struct TaskCost {
  double cpu_seconds_per_point = 0.0;
  /// Negative when the task has no GPU variant.
  double gpu_seconds_per_point = -1.0;

  [[nodiscard]] bool has_gpu_variant() const {
    return gpu_seconds_per_point >= 0.0;
  }
};

/// A group task: `num_points` independent instances launched together. All
/// points receive the same kind-level mapping (§3.2).
struct GroupTask {
  TaskId id;
  std::string name;
  int num_points = 1;
  TaskCost cost;
  std::vector<CollectionUse> args;
};

/// A data dependence between two group tasks through a (pair of overlapping)
/// collection(s). `bytes` is the overlap volume in bytes — the amount that
/// must move when producer and consumer map the data to different memories.
struct DependenceEdge {
  TaskId producer;
  TaskId consumer;
  CollectionId producer_collection;
  CollectionId consumer_collection;
  std::uint64_t bytes = 0;
  /// True when the consumer instance belongs to the *next* iteration of the
  /// application's main loop (loop-carried dependence).
  bool cross_iteration = false;
  /// Fraction of `bytes` that crosses node boundaries when both endpoint
  /// tasks are distributed *blocked* across nodes. Halo-exchange edges are
  /// ~1.0 for scattered placements (the overlap *is* the boundary data);
  /// bulk producer-consumer edges within a block are 0.0. Round-robin point
  /// placement inflates this (see TaskMapping::blocked).
  double internode_fraction = 0.0;
  /// False for pure ordering dependences (WAR/WAW): they serialize execution
  /// but move no data.
  bool carries_data = true;
};

/// Weighted edge of the induced collection overlap graph C (§4.2):
/// (c1, c2) in E iff c1 n c2 != {} with weight |c1 n c2| in bytes.
struct OverlapEdge {
  CollectionId a;
  CollectionId b;
  std::uint64_t weight_bytes = 0;
};

class TaskGraph {
 public:
  // --- construction -------------------------------------------------------

  RegionId add_region(std::string name, Rect bounds,
                      std::uint64_t bytes_per_element);
  CollectionId add_collection(RegionId region, std::string name, Rect rect);
  TaskId add_task(std::string name, int num_points, TaskCost cost,
                  std::vector<CollectionUse> args);
  /// Appends one collection argument to an existing task (used by the text
  /// deserializer, which streams arguments line by line).
  void append_task_arg(TaskId task, CollectionUse use);
  void add_dependence(DependenceEdge edge);

  /// Checks that the graph has a task, that every edge's endpoint tasks
  /// take its collections as arguments, that a data-carrying edge moves
  /// bytes, and that the same-iteration subgraph is acyclic. Throws a
  /// one-line Error naming the edge, or the tasks on a cycle.
  void validate() const;
  /// Empty when both endpoint tasks of `edge` take its collections as
  /// arguments; otherwise which task lacks which collection, by index and
  /// name. The edge's indices must be in range.
  [[nodiscard]] std::string missing_edge_arg(const DependenceEdge& edge) const;

  // --- access --------------------------------------------------------------

  [[nodiscard]] std::size_t num_regions() const { return regions_.size(); }
  [[nodiscard]] std::size_t num_collections() const {
    return collections_.size();
  }
  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  /// Total number of collection arguments over all tasks — the paper's
  /// "Collection Arguments" column in Fig. 5.
  [[nodiscard]] std::size_t num_collection_args() const {
    return arg_off_.back();
  }
  /// The one numbering of collection arguments: task t owns the flat ids
  /// [arg_offsets()[t], arg_offsets()[t + 1]), in GroupTask::args order.
  /// Mappings, the co-location map and the simulator index by it.
  [[nodiscard]] const std::vector<std::uint32_t>& arg_offsets() const {
    return arg_off_;
  }

  [[nodiscard]] const Region& region(RegionId id) const;
  [[nodiscard]] const Collection& collection(CollectionId id) const;
  [[nodiscard]] const GroupTask& task(TaskId id) const;
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }
  [[nodiscard]] const std::vector<Collection>& collections() const {
    return collections_;
  }
  [[nodiscard]] const std::vector<GroupTask>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<DependenceEdge>& edges() const {
    return edges_;
  }

  /// Bytes of one collection (volume x element size of its region), from
  /// a table add_collection fills: memory resolution reads it for every
  /// argument of every candidate.
  [[nodiscard]] std::uint64_t collection_bytes(CollectionId id) const {
    AM_REQUIRE(id.index() < collection_bytes_.size(), "unknown collection");
    return collection_bytes_[id.index()];
  }

  /// Topological order of the same-iteration subgraph.
  [[nodiscard]] std::vector<TaskId> topological_order() const;

  /// Builds the induced collection overlap graph C (§4.2). Edges are
  /// symmetric and listed once with a < b.
  [[nodiscard]] std::vector<OverlapEdge> build_overlap_graph() const;

  /// Overlap in bytes of two collections (0 for different regions).
  [[nodiscard]] std::uint64_t overlap_bytes(CollectionId a,
                                            CollectionId b) const;

  /// Multi-line human-readable dump (used by examples and debugging).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<Region> regions_;
  std::vector<Collection> collections_;
  std::vector<std::uint64_t> collection_bytes_;  // by collection id
  std::vector<GroupTask> tasks_;
  std::vector<std::uint32_t> arg_off_ = {0};  // see arg_offsets()
  std::vector<DependenceEdge> edges_;
};

}  // namespace automap
