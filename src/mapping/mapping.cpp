#include "src/mapping/mapping.hpp"

#include <functional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "src/io/line_reader.hpp"
#include "src/support/error.hpp"
#include "src/support/rng.hpp"

namespace automap {

Mapping::Mapping(const TaskGraph& graph)
    : tasks_(graph.num_tasks()),
      arg_off_(graph.arg_offsets()),
      memories_(graph.num_collection_args(), {MemKind::kFrameBuffer}) {}

void Mapping::copy_task(TaskId id, const Mapping& other) {
  const auto from = other.memories(id);
  const auto to = memories(id);
  AM_REQUIRE(from.size() == to.size(),
             "copy_task requires equal-shaped mappings");
  tasks_[id.index()] = other.tasks_[id.index()];
  std::ranges::copy(from, to.begin());
}

std::vector<std::string> Mapping::violations(
    const TaskGraph& graph, const MachineModel& machine) const {
  std::vector<std::string> out;
  AM_REQUIRE(tasks_.size() == graph.num_tasks(),
             "mapping shape does not match graph");
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    const auto mems = memories(TaskId(i));
    if (mems.size() != task.args.size()) {
      out.push_back("task " + task.name + ": argument count mismatch");
      continue;
    }
    if (!machine.has_proc_kind(tm.proc)) {
      out.push_back("task " + task.name + ": machine lacks " +
                    std::string(to_string(tm.proc)));
      continue;
    }
    if (tm.proc == ProcKind::kGpu && !task.cost.has_gpu_variant()) {
      out.push_back("task " + task.name + ": no GPU variant");
    }
    for (std::size_t a = 0; a < mems.size(); ++a) {
      if (mems[a].empty()) {
        out.push_back("task " + task.name + " arg " + std::to_string(a) +
                      ": empty memory priority list");
        continue;
      }
      for (const MemKind m : mems[a]) {
        if (!machine.addressable(tm.proc, m)) {
          out.push_back("task " + task.name + " arg " + std::to_string(a) +
                        ": " + std::string(to_string(m)) +
                        " not addressable from " +
                        std::string(to_string(tm.proc)));
        }
      }
    }
  }
  return out;
}

bool Mapping::valid(const TaskGraph& graph, const MachineModel& machine) const {
  // Same predicate as violations().empty(), without building the
  // human-readable strings: the search layer validates every proposed
  // candidate, most of which are invalid mutations.
  if (tasks_.size() != graph.num_tasks()) return false;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    if (memories(TaskId(i)).size() != task.args.size()) return false;
    if (!machine.has_proc_kind(tm.proc)) return false;
    if (tm.proc == ProcKind::kGpu && !task.cost.has_gpu_variant())
      return false;
    for (const MemPriority& mems : memories(TaskId(i))) {
      if (mems.empty()) return false;
      for (const MemKind m : mems)
        if (!machine.addressable(tm.proc, m)) return false;
    }
  }
  return true;
}

std::uint64_t Mapping::hash() const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  auto absorb = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskMapping& tm = tasks_[i];
    absorb(tm.distribute ? 1 : 2);
    absorb((tm.distribute && tm.blocked) ? 3 : 4);
    absorb(static_cast<std::uint64_t>(index_of(tm.proc)) + 10);
    for (const MemPriority& mems : memories(TaskId(i))) {
      absorb(0xabcdULL);
      for (const MemKind m : mems)
        absorb(static_cast<std::uint64_t>(index_of(m)) + 100);
    }
  }
  return h;
}

// key() reads the flat memory lists as bytes: a list's bytes must be its
// value, with no padding (and, by MemPriority's invariant, zero dead slots).
static_assert(std::has_unique_object_representations_v<MemPriority>);

std::uint64_t Mapping::key() const {
  // The memory lists hash a word at a time through std::hash; the task
  // decisions pack one byte each, eight to a word, with `blocked` counted
  // only when `distribute` is set, as hash() counts it.
  std::uint64_t key = std::hash<std::string_view>{}(
      {reinterpret_cast<const char*>(memories_.data()),
       memories_.size() * sizeof(MemPriority)});
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskMapping& tm = tasks_[i];
    word = word << 8 | (tm.distribute ? 1U : 0U) |
           (tm.distribute && tm.blocked ? 2U : 0U) | index_of(tm.proc) << 2;
    if (i % 8 == 7) {
      key = mix64(key ^ word);
      word = 0;
    }
  }
  return mix64(key ^ word);
}

std::string Mapping::serialize() const {
  // Plain string appends: the profiles-database export serializes every
  // measured mapping, which can be tens of thousands per search.
  std::string out;
  out.reserve(tasks_.size() * 48);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskMapping& tm = tasks_[i];
    out += "task ";
    out += std::to_string(i);
    out += ' ';
    out += tm.distribute ? (tm.blocked ? "blocked" : "dist") : "leader";
    out += ' ';
    out += to_string(tm.proc);
    for (const MemPriority& mems : memories(TaskId(i))) {
      out += ' ';
      for (std::size_t m = 0; m < mems.size(); ++m) {
        if (m > 0) out += ',';
        out += to_string(mems[m]);
      }
    }
    out += '\n';
  }
  return out;
}

Mapping Mapping::parse(const std::string& text, const TaskGraph& graph) {
  std::istringstream is(text);
  LineReader reader(is);
  Mapping mapping = read(reader, graph);
  std::vector<std::string> extra;
  reader.expect(!reader.next(extra),
                "mapping text has more lines than the graph has tasks");
  return mapping;
}

Mapping Mapping::read(LineReader& reader, const TaskGraph& graph) {
  Mapping mapping(graph);
  const std::size_t tasks = graph.num_tasks();
  std::vector<bool> seen(tasks, false);
  std::vector<std::string> t;
  for (std::size_t line = 0; line < tasks; ++line) {
    if (!reader.next(t))
      reader.fail("mapping covers " + std::to_string(line) + " of " +
                  std::to_string(tasks) + " tasks");
    if (t[0] != "task" || t.size() < 4)
      reader.fail("expected: task <index> <dist|blocked|leader> <CPU|GPU> "
                  "<memories>...");
    const auto index = static_cast<std::size_t>(
        reader.to_int(t[1], 0, static_cast<long long>(tasks) - 1));
    if (seen[index]) reader.fail("task " + t[1] + " is mapped twice");
    seen[index] = true;
    const std::size_t num_args = graph.task(TaskId(index)).args.size();
    if (t.size() != 4 + num_args)
      reader.fail("task " + t[1] + " takes " + std::to_string(num_args) +
                  " memory entries, got " + std::to_string(t.size() - 4));
    TaskMapping& tm = mapping.tasks_[index];
    if (t[2] != "dist" && t[2] != "leader" && t[2] != "blocked")
      reader.fail("bad distribution flag: " + t[2]);
    tm.distribute = t[2] != "leader";
    tm.blocked = t[2] == "blocked";
    tm.proc = reader.decode(parse_proc_kind, t[3]);
    for (std::size_t a = 0; a < num_args; ++a) {
      MemPriority& priority = mapping.memories(TaskId(index))[a];
      priority.clear();
      std::istringstream ms(t[4 + a]);
      std::string one;
      while (std::getline(ms, one, ',')) {
        const MemKind kind = reader.decode(parse_mem_kind, one);
        // A repeat could never place data its first occurrence could not.
        if (std::ranges::find(priority, kind) != priority.end())
          reader.fail("task " + t[1] + " argument " + std::to_string(a) +
                      " lists " + std::string(to_string(kind)) + " twice");
        priority.push_back(kind);
      }
    }
  }
  return mapping;
}

std::string Mapping::describe(const TaskGraph& graph) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& tm = tasks_[i];
    os << task.name << ": " << (tm.distribute ? "distributed" : "leader-only")
       << " on " << to_string(tm.proc) << "\n";
    const auto mems = memories(TaskId(i));
    for (std::size_t a = 0; a < mems.size(); ++a) {
      os << "  " << graph.collection(task.args[a].collection).name << " -> ";
      for (std::size_t m = 0; m < mems[a].size(); ++m) {
        if (m > 0) os << " | ";
        os << to_string(mems[a][m]);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::vector<std::string> Mapping::diff(const Mapping& other,
                                       const TaskGraph& graph) const {
  AM_REQUIRE(tasks_.size() == other.tasks_.size(),
             "diff requires equal-shaped mappings");
  std::vector<std::string> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const GroupTask& task = graph.task(TaskId(i));
    const TaskMapping& a = tasks_[i];
    const TaskMapping& b = other.tasks_[i];
    if (a.distribute != b.distribute) {
      out.push_back(task.name + ": distribution " +
                    (a.distribute ? "dist" : "leader") + " -> " +
                    (b.distribute ? "dist" : "leader"));
    }
    if (a.proc != b.proc) {
      out.push_back(task.name + ": proc " + std::string(to_string(a.proc)) +
                    " -> " + std::string(to_string(b.proc)));
    }
    const auto a_mems = memories(TaskId(i));
    const auto b_mems = other.memories(TaskId(i));
    const std::size_t args = std::min(a_mems.size(), b_mems.size());
    for (std::size_t arg = 0; arg < args; ++arg) {
      if (a_mems[arg] != b_mems[arg]) {
        out.push_back(task.name + "/" +
                      graph.collection(task.args[arg].collection).name +
                      ": memory changed");
      }
    }
  }
  return out;
}

}  // namespace automap
