#include "src/io/text_io.hpp"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "src/io/line_reader.hpp"
#include "src/support/error.hpp"

namespace automap {

namespace {

const char* privilege_name(Privilege p) { return to_string(p); }

Privilege parse_privilege(const LineReader& reader, const std::string& s) {
  if (s == "RO") return Privilege::kReadOnly;
  if (s == "WO") return Privilege::kWriteOnly;
  if (s == "RW") return Privilege::kReadWrite;
  if (s == "RD") return Privilege::kReduce;
  reader.fail("unknown privilege: " + s);
}

void write_rect(std::ostream& os, const Rect& r) {
  os << r.dims;
  for (int d = 0; d < r.dims; ++d) os << " " << r.lo[d] << " " << r.hi[d];
}

Rect read_rect(const LineReader& reader,
               const std::vector<std::string>& tokens, std::size_t& cursor) {
  reader.expect(cursor < tokens.size(), "missing rect dimensionality");
  const int dims =
      static_cast<int>(reader.to_int(tokens[cursor++], 1, Rect::kMaxDims));
  Rect r;
  r.dims = dims;
  for (int d = 0; d < dims; ++d) {
    reader.expect(cursor + 1 < tokens.size(), "truncated rect bounds");
    r.lo[d] = reader.to_int(tokens[cursor++]);
    r.hi[d] = reader.to_int(tokens[cursor++]);
  }
  return r;
}

}  // namespace

// --- machine --------------------------------------------------------------

namespace {
/// Round-trip-exact double formatting; restores stream precision on exit.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(std::ostream& os)
      : os_(os), saved_(os.precision(17)) {}
  ~PrecisionGuard() { os_.precision(saved_); }
  PrecisionGuard(const PrecisionGuard&) = delete;
  PrecisionGuard& operator=(const PrecisionGuard&) = delete;

 private:
  std::ostream& os_;
  std::streamsize saved_;
};
}  // namespace

void write_machine(std::ostream& os, const MachineModel& machine) {
  const PrecisionGuard guard(os);
  os << "machine " << machine.name() << " nodes " << machine.num_nodes()
     << "\n";
  os << "runtime_overhead " << machine.runtime_overhead() << "\n";
  if (machine.restart_overhead() > 0.0)
    os << "restart_overhead " << machine.restart_overhead() << "\n";
  for (const ProcKind k : machine.proc_kinds()) {
    const ProcGroup& g = machine.proc_group(k);
    os << "proc " << to_string(k) << " count " << g.count_per_node
       << " speed " << g.speed << " launch_overhead " << g.launch_overhead_s
       << " watts " << g.watts_busy << "\n";
  }
  for (const MemKind k : machine.mem_kinds()) {
    const MemGroup& g = machine.mem_group(k);
    os << "mem " << to_string(k) << " count " << g.count_per_node
       << " capacity " << g.capacity_bytes << "\n";
  }
  for (const ProcKind p : machine.proc_kinds()) {
    for (const MemKind m : machine.mem_kinds()) {
      if (!machine.addressable(p, m)) continue;
      const Affinity a = machine.affinity(p, m);
      os << "affinity " << to_string(p) << " " << to_string(m)
         << " bandwidth " << a.bandwidth_bytes_per_s << " latency "
         << a.latency_s << "\n";
    }
  }
  const auto mems = machine.mem_kinds();
  for (std::size_t i = 0; i < mems.size(); ++i) {
    for (std::size_t j = i; j < mems.size(); ++j) {
      for (const bool inter : {false, true}) {
        if (machine.num_nodes() == 1 && inter) continue;
        const Channel c = machine.channel(mems[i], mems[j], inter);
        os << "channel " << to_string(mems[i]) << " " << to_string(mems[j])
           << " " << (inter ? "inter" : "intra") << " bandwidth "
           << c.bandwidth_bytes_per_s << " latency " << c.latency_s << "\n";
      }
    }
  }
  if (machine.mems_per_node(MemKind::kSystem) > 1) {
    const Channel c = machine.cross_socket_channel();
    os << "cross_socket bandwidth " << c.bandwidth_bytes_per_s << " latency "
       << c.latency_s << "\n";
  }
}

MachineModel read_machine(std::istream& is) {
  LineReader reader(is);
  std::vector<std::string> t;

  reader.expect(reader.next(t), "empty machine file");
  reader.expect(t.size() == 4 && t[0] == "machine" && t[2] == "nodes",
                "expected: machine <name> nodes <count>");
  MachineModel machine(t[1], static_cast<int>(reader.to_int(t[3])));

  while (reader.next(t)) {
    if (t[0] == "runtime_overhead") {
      reader.expect(t.size() == 2, "runtime_overhead <seconds>");
      machine.set_runtime_overhead(reader.to_double(t[1]));
    } else if (t[0] == "restart_overhead") {
      // Optional (absent in machine files written before the fault layer).
      reader.expect(t.size() == 2, "restart_overhead <seconds>");
      machine.set_restart_overhead(reader.to_double(t[1]));
    } else if (t[0] == "proc") {
      reader.expect((t.size() == 8 || t.size() == 10) && t[2] == "count" &&
                        t[4] == "speed" && t[6] == "launch_overhead",
                    "proc <kind> count <n> speed <s> launch_overhead <s> "
                    "[watts <w>]");
      ProcGroup group{.kind = parse_proc_kind(t[1]),
                      .count_per_node = static_cast<int>(reader.to_int(t[3])),
                      .speed = reader.to_double(t[5]),
                      .launch_overhead_s = reader.to_double(t[7])};
      if (t.size() == 10) {
        reader.expect(t[8] == "watts", "expected: watts <w>");
        group.watts_busy = reader.to_double(t[9]);
      }
      machine.add_proc_group(group);
    } else if (t[0] == "mem") {
      reader.expect(t.size() == 6 && t[2] == "count" && t[4] == "capacity",
                    "mem <kind> count <n> capacity <bytes>");
      machine.add_mem_group(
          {.kind = parse_mem_kind(t[1]),
           .count_per_node = static_cast<int>(reader.to_int(t[3])),
           .capacity_bytes =
               static_cast<std::uint64_t>(reader.to_int(t[5]))});
    } else if (t[0] == "affinity") {
      reader.expect(t.size() == 7 && t[3] == "bandwidth" && t[5] == "latency",
                    "affinity <proc> <mem> bandwidth <b> latency <l>");
      machine.set_affinity(parse_proc_kind(t[1]), parse_mem_kind(t[2]),
                           {reader.to_double(t[4]), reader.to_double(t[6])});
    } else if (t[0] == "channel") {
      reader.expect(t.size() == 8 && t[4] == "bandwidth" && t[6] == "latency",
                    "channel <mem> <mem> <intra|inter> bandwidth <b> "
                    "latency <l>");
      reader.expect(t[3] == "intra" || t[3] == "inter",
                    "channel scope must be intra or inter");
      machine.set_channel(parse_mem_kind(t[1]), parse_mem_kind(t[2]),
                          t[3] == "inter",
                          {reader.to_double(t[5]), reader.to_double(t[7])});
    } else if (t[0] == "cross_socket") {
      reader.expect(t.size() == 5 && t[1] == "bandwidth" && t[3] == "latency",
                    "cross_socket bandwidth <b> latency <l>");
      machine.set_cross_socket_channel(
          {reader.to_double(t[2]), reader.to_double(t[4])});
    } else {
      reader.fail("unknown machine directive: " + t[0]);
    }
  }
  machine.validate();
  return machine;
}

// --- task graph -------------------------------------------------------------

void write_task_graph(std::ostream& os, const TaskGraph& graph) {
  const PrecisionGuard guard(os);
  os << "taskgraph regions " << graph.num_regions() << " collections "
     << graph.num_collections() << " tasks " << graph.num_tasks()
     << " edges " << graph.num_edges() << "\n";
  for (const Region& r : graph.regions()) {
    os << "region " << r.name << " elem_bytes " << r.bytes_per_element
       << " bounds ";
    write_rect(os, r.bounds);
    os << "\n";
  }
  for (const Collection& c : graph.collections()) {
    os << "collection " << c.name << " region " << c.region.value()
       << " rect ";
    write_rect(os, c.rect);
    os << "\n";
  }
  for (const GroupTask& task : graph.tasks()) {
    os << "task " << task.name << " points " << task.num_points << " cpu "
       << task.cost.cpu_seconds_per_point << " gpu "
       << task.cost.gpu_seconds_per_point << "\n";
    for (const CollectionUse& use : task.args) {
      os << "  arg " << use.collection.value() << " "
         << privilege_name(use.privilege) << " " << use.access_fraction
         << "\n";
    }
  }
  for (const DependenceEdge& e : graph.edges()) {
    os << "edge " << e.producer.value() << " " << e.consumer.value() << " "
       << e.producer_collection.value() << " " << e.consumer_collection.value()
       << " bytes " << e.bytes << " cross " << (e.cross_iteration ? 1 : 0)
       << " fraction " << e.internode_fraction << " data "
       << (e.carries_data ? 1 : 0) << "\n";
  }
}

TaskGraph read_task_graph(std::istream& is) {
  LineReader reader(is);
  std::vector<std::string> t;
  TaskGraph graph;

  reader.expect(reader.next(t), "empty task graph file");
  reader.expect(!t.empty() && t[0] == "taskgraph",
                "expected a taskgraph header");

  std::optional<TaskId> current_task;
  while (reader.next(t)) {
    if (t[0] == "region") {
      reader.expect(t.size() >= 6 && t[2] == "elem_bytes" && t[4] == "bounds",
                    "region <name> elem_bytes <n> bounds <rect>");
      std::size_t cursor = 5;
      const Rect bounds = read_rect(reader, t, cursor);
      graph.add_region(t[1], bounds,
                       static_cast<std::uint64_t>(reader.to_int(t[3])));
    } else if (t[0] == "collection") {
      reader.expect(t.size() >= 6 && t[2] == "region" && t[4] == "rect",
                    "collection <name> region <id> rect <rect>");
      std::size_t cursor = 5;
      const Rect rect = read_rect(reader, t, cursor);
      graph.add_collection(RegionId(reader.to_int(t[3])), t[1], rect);
    } else if (t[0] == "task") {
      reader.expect(t.size() == 8 && t[2] == "points" && t[4] == "cpu" &&
                        t[6] == "gpu",
                    "task <name> points <n> cpu <s> gpu <s>");
      current_task = graph.add_task(
          t[1], static_cast<int>(reader.to_int(t[3])),
          {.cpu_seconds_per_point = reader.to_double(t[5]),
           .gpu_seconds_per_point = reader.to_double(t[7])},
          {});
    } else if (t[0] == "arg") {
      reader.expect(current_task.has_value(), "arg before any task");
      reader.expect(t.size() == 4, "arg <collection id> <priv> <fraction>");
      // Tasks are immutable once added; rebuild with the extra argument by
      // mutating through a fresh add is not possible, so args are parsed
      // into the task via the dedicated hook below.
      graph.append_task_arg(*current_task,
                            {CollectionId(reader.to_int(t[1])),
                             parse_privilege(reader, t[2]),
                             reader.to_double(t[3])});
    } else if (t[0] == "edge") {
      reader.expect(t.size() == 13 && t[5] == "bytes" && t[7] == "cross" &&
                        t[9] == "fraction" && t[11] == "data",
                    "edge <p> <c> <pcol> <ccol> bytes <n> cross <0|1> "
                    "fraction <f> data <0|1>");
      graph.add_dependence(
          {.producer = TaskId(reader.to_int(t[1])),
           .consumer = TaskId(reader.to_int(t[2])),
           .producer_collection = CollectionId(reader.to_int(t[3])),
           .consumer_collection = CollectionId(reader.to_int(t[4])),
           .bytes = static_cast<std::uint64_t>(reader.to_int(t[6])),
           .cross_iteration = reader.to_int(t[8]) != 0,
           .internode_fraction = reader.to_double(t[10]),
           .carries_data = reader.to_int(t[12]) != 0});
    } else {
      reader.fail("unknown task graph directive: " + t[0]);
    }
  }
  graph.validate();
  return graph;
}

// --- string/file helpers -----------------------------------------------------

std::string machine_to_string(const MachineModel& machine) {
  std::ostringstream os;
  write_machine(os, machine);
  return os.str();
}

MachineModel machine_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_machine(is);
}

std::string task_graph_to_string(const TaskGraph& graph) {
  std::ostringstream os;
  write_task_graph(os, graph);
  return os.str();
}

TaskGraph task_graph_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_task_graph(is);
}

void save_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  AM_REQUIRE(os.good(), "cannot open for writing: " + path);
  os << text;
  AM_REQUIRE(os.good(), "write failed: " + path);
}

std::string load_text(const std::string& path) {
  std::ifstream is(path);
  AM_REQUIRE(is.good(), "cannot open for reading: " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void require_writable_path(const std::string& path) {
  AM_REQUIRE(!path.empty(), "output path is empty");
  // Append mode probes writability without truncating an existing file.
  const bool existed = static_cast<bool>(std::ifstream(path));
  {
    std::ofstream os(path, std::ios::app);
    AM_REQUIRE(os.good(), "cannot write output file: " + path +
                              " (missing directory or no permission?)");
  }
  if (!existed) std::remove(path.c_str());
}

void save_machine(const std::string& path, const MachineModel& machine) {
  save_text(path, machine_to_string(machine));
}

MachineModel load_machine(const std::string& path) {
  return machine_from_string(load_text(path));
}

void save_task_graph(const std::string& path, const TaskGraph& graph) {
  save_text(path, task_graph_to_string(graph));
}

TaskGraph load_task_graph(const std::string& path) {
  return task_graph_from_string(load_text(path));
}

}  // namespace automap
