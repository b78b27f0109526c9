#include "src/taskgraph/task_graph.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "src/support/error.hpp"
#include "src/support/format.hpp"

namespace automap {

const char* to_string(Privilege p) {
  switch (p) {
    case Privilege::kReadOnly:
      return "RO";
    case Privilege::kWriteOnly:
      return "WO";
    case Privilege::kReadWrite:
      return "RW";
    case Privilege::kReduce:
      return "RD";
  }
  AM_UNREACHABLE("bad Privilege");
}

RegionId TaskGraph::add_region(std::string name, Rect bounds,
                               std::uint64_t bytes_per_element) {
  AM_REQUIRE(!bounds.empty(), "region bounds must be non-empty");
  AM_REQUIRE(bytes_per_element > 0, "bytes_per_element must be positive");
  const RegionId id(regions_.size());
  regions_.push_back(
      {.id = id, .name = std::move(name), .bounds = bounds,
       .bytes_per_element = bytes_per_element});
  return id;
}

CollectionId TaskGraph::add_collection(RegionId region, std::string name,
                                       Rect rect) {
  AM_REQUIRE(region.index() < regions_.size(), "unknown region");
  AM_REQUIRE(!rect.empty(), "collection rectangle must be non-empty");
  AM_REQUIRE(regions_[region.index()].bounds.contains(rect),
             "collection must lie inside its region: " + name);
  const CollectionId id(collections_.size());
  collections_.push_back(
      {.id = id, .region = region, .name = std::move(name), .rect = rect});
  collection_bytes_.push_back(rect.volume() *
                              regions_[region.index()].bytes_per_element);
  return id;
}

TaskId TaskGraph::add_task(std::string name, int num_points, TaskCost cost,
                           std::vector<CollectionUse> args) {
  AM_REQUIRE(num_points > 0, "group task needs at least one point");
  AM_REQUIRE(cost.cpu_seconds_per_point > 0.0,
             "every task needs a CPU variant with positive cost");
  for (const auto& use : args) {
    AM_REQUIRE(use.collection.index() < collections_.size(),
               "task argument references unknown collection");
    AM_REQUIRE(use.access_fraction > 0.0 && use.access_fraction <= 1.0,
               "access_fraction must be in (0, 1]");
  }
  const TaskId id(tasks_.size());
  tasks_.push_back({.id = id,
                    .name = std::move(name),
                    .num_points = num_points,
                    .cost = cost,
                    .args = std::move(args)});
  arg_off_.push_back(arg_off_.back() +
                     static_cast<std::uint32_t>(tasks_.back().args.size()));
  return id;
}

void TaskGraph::append_task_arg(TaskId task, CollectionUse use) {
  AM_REQUIRE(task.index() < tasks_.size(), "unknown task");
  AM_REQUIRE(use.collection.index() < collections_.size(),
             "task argument references unknown collection");
  AM_REQUIRE(use.access_fraction > 0.0 && use.access_fraction <= 1.0,
             "access_fraction must be in (0, 1]");
  tasks_[task.index()].args.push_back(use);
  for (std::size_t t = task.index() + 1; t < arg_off_.size(); ++t)
    ++arg_off_[t];
}

void TaskGraph::add_dependence(DependenceEdge edge) {
  AM_REQUIRE(edge.producer.index() < tasks_.size(), "unknown producer");
  AM_REQUIRE(edge.consumer.index() < tasks_.size(), "unknown consumer");
  AM_REQUIRE(edge.producer_collection.index() < collections_.size(),
             "unknown producer collection");
  AM_REQUIRE(edge.consumer_collection.index() < collections_.size(),
             "unknown consumer collection");
  AM_REQUIRE(edge.internode_fraction >= 0.0 && edge.internode_fraction <= 1.0,
             "internode_fraction must be in [0, 1]");
  edges_.push_back(edge);
}

const Region& TaskGraph::region(RegionId id) const {
  AM_REQUIRE(id.index() < regions_.size(), "unknown region");
  return regions_[id.index()];
}

const Collection& TaskGraph::collection(CollectionId id) const {
  AM_REQUIRE(id.index() < collections_.size(), "unknown collection");
  return collections_[id.index()];
}

const GroupTask& TaskGraph::task(TaskId id) const {
  AM_REQUIRE(id.index() < tasks_.size(), "unknown task");
  return tasks_[id.index()];
}

namespace {

/// Kahn's algorithm over the same-iteration edges. The order leaves out
/// exactly the tasks on a cycle or downstream of one.
std::vector<TaskId> kahn_order(std::size_t num_tasks,
                               const std::vector<DependenceEdge>& edges) {
  std::vector<std::size_t> in_degree(num_tasks, 0);
  for (const auto& e : edges)
    if (!e.cross_iteration) ++in_degree[e.consumer.index()];

  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < num_tasks; ++i)
    if (in_degree[i] == 0) ready.push(i);

  std::vector<TaskId> order;
  order.reserve(num_tasks);
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop();
    order.push_back(TaskId(i));
    for (const auto& e : edges) {
      if (e.cross_iteration || e.producer.index() != i) continue;
      if (--in_degree[e.consumer.index()] == 0)
        ready.push(e.consumer.index());
    }
  }
  return order;
}

}  // namespace

std::vector<TaskId> TaskGraph::topological_order() const {
  std::vector<TaskId> order = kahn_order(tasks_.size(), edges_);
  AM_CHECK(order.size() == tasks_.size(),
           "same-iteration dependence graph has a cycle");
  return order;
}

std::string TaskGraph::missing_edge_arg(const DependenceEdge& edge) const {
  const auto lacks = [&](const char* role, TaskId t,
                         CollectionId c) -> std::string {
    const GroupTask& owner = task(t);
    for (const CollectionUse& use : owner.args)
      if (use.collection == c) return {};
    return std::string(role) + " task " + std::to_string(t.index()) + " '" +
           owner.name + "' does not take collection " +
           std::to_string(c.index()) + " '" + collection(c).name +
           "' as an argument";
  };
  std::string missing =
      lacks("producer", edge.producer, edge.producer_collection);
  return missing.empty()
             ? lacks("consumer", edge.consumer, edge.consumer_collection)
             : missing;
}

void TaskGraph::validate() const {
  // Graphs come from files and wire requests: a defect is a plain Error.
  const auto invalid = [](const std::string& what) {
    return Error("invalid task graph: " + what);
  };
  if (tasks_.empty()) throw invalid("no tasks");
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const DependenceEdge& e = edges_[i];
    const std::string missing = e.carries_data && e.bytes == 0
                                    ? "carries data but moves zero bytes"
                                    : missing_edge_arg(e);
    if (!missing.empty())
      throw invalid("edge " + std::to_string(i) + ": " + missing);
  }

  const std::vector<TaskId> order = kahn_order(tasks_.size(), edges_);
  if (order.size() == tasks_.size()) return;
  // Every task left out waits on a same-iteration producer that was left
  // out too, so walking producers back from one must revisit a task; the
  // walk from its first visit on is a cycle, seen backwards.
  std::vector<bool> placed(tasks_.size(), false);
  for (const TaskId t : order) placed[t.index()] = true;
  std::vector<int> seen_at(tasks_.size(), -1);
  std::vector<std::size_t> walk;
  std::size_t at = static_cast<std::size_t>(
      std::find(placed.begin(), placed.end(), false) - placed.begin());
  while (seen_at[at] < 0) {
    seen_at[at] = static_cast<int>(walk.size());
    walk.push_back(at);
    for (const auto& e : edges_) {
      if (!e.cross_iteration && e.consumer.index() == at &&
          !placed[e.producer.index()]) {
        at = e.producer.index();
        break;
      }
    }
  }
  std::vector<std::size_t> cycle(walk.begin() + seen_at[at], walk.end());
  std::reverse(cycle.begin(), cycle.end());
  std::rotate(cycle.begin(), std::min_element(cycle.begin(), cycle.end()),
              cycle.end());
  cycle.push_back(cycle.front());
  std::string path;
  for (const std::size_t t : cycle) {
    if (!path.empty()) path += " -> ";
    path += "task " + std::to_string(t) + " '" + tasks_[t].name + "'";
  }
  throw invalid("same-iteration dependence cycle: " + path);
}

std::vector<OverlapEdge> TaskGraph::build_overlap_graph() const {
  std::vector<OverlapEdge> out;
  for (std::size_t i = 0; i < collections_.size(); ++i) {
    for (std::size_t j = i + 1; j < collections_.size(); ++j) {
      const std::uint64_t w =
          overlap_bytes(CollectionId(i), CollectionId(j));
      if (w > 0)
        out.push_back({CollectionId(i), CollectionId(j), w});
    }
  }
  return out;
}

std::uint64_t TaskGraph::overlap_bytes(CollectionId a, CollectionId b) const {
  const Collection& ca = collection(a);
  const Collection& cb = collection(b);
  if (ca.region != cb.region) return 0;
  const Rect inter = ca.rect.intersect(cb.rect);
  return inter.volume() * region(ca.region).bytes_per_element;
}

std::string TaskGraph::describe() const {
  std::ostringstream os;
  os << "task graph: " << tasks_.size() << " group tasks, "
     << collections_.size() << " collections, " << num_collection_args()
     << " collection args, " << edges_.size() << " dependences\n";
  for (const auto& t : tasks_) {
    os << "  task " << t.id << " " << t.name << " x" << t.num_points << " (";
    for (std::size_t i = 0; i < t.args.size(); ++i) {
      if (i > 0) os << ", ";
      const auto& use = t.args[i];
      os << collection(use.collection).name << ":"
         << to_string(use.privilege);
    }
    os << ")\n";
  }
  for (const auto& c : collections_) {
    os << "  collection " << c.id << " " << c.name << " "
       << format_bytes(collection_bytes(c.id))
       << " region=" << region(c.region).name << "\n";
  }
  return os.str();
}

}  // namespace automap
