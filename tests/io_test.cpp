// Tests for the text formats: machine models and task graphs (the §3.3
// search-space/machine files), and the malformed-input handling of every
// format read through LineReader (mappings, profiles databases, evaluator
// state, checkpoints).

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

TEST(MachineIo, RoundTripPreservesEverything) {
  for (const MachineModel& original : {make_shepard(2), make_lassen(4)}) {
    const MachineModel parsed =
        machine_from_string(machine_to_string(original));
    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.num_nodes(), original.num_nodes());
    EXPECT_EQ(parsed.runtime_overhead(), original.runtime_overhead());
    for (const ProcKind k : original.proc_kinds()) {
      EXPECT_EQ(parsed.procs_per_node(k), original.procs_per_node(k));
      EXPECT_EQ(parsed.proc_group(k).speed, original.proc_group(k).speed);
      EXPECT_EQ(parsed.proc_group(k).launch_overhead_s,
                original.proc_group(k).launch_overhead_s);
      EXPECT_EQ(parsed.proc_group(k).watts_busy,
                original.proc_group(k).watts_busy);
    }
    for (const MemKind k : original.mem_kinds()) {
      EXPECT_EQ(parsed.mem_capacity(k), original.mem_capacity(k));
      EXPECT_EQ(parsed.mems_per_node(k), original.mems_per_node(k));
      for (const ProcKind p : original.proc_kinds()) {
        ASSERT_EQ(parsed.addressable(p, k), original.addressable(p, k));
        if (!original.addressable(p, k)) continue;
        EXPECT_EQ(parsed.affinity(p, k).bandwidth_bytes_per_s,
                  original.affinity(p, k).bandwidth_bytes_per_s);
      }
      for (const MemKind other : original.mem_kinds()) {
        for (const bool inter : {false, true}) {
          if (original.num_nodes() == 1 && inter) continue;
          EXPECT_EQ(parsed.channel(k, other, inter).bandwidth_bytes_per_s,
                    original.channel(k, other, inter).bandwidth_bytes_per_s);
        }
      }
    }
  }
}

TEST(MachineIo, SingleNodeMachineRoundTrips) {
  const MachineModel parsed =
      machine_from_string(machine_to_string(make_shepard(1)));
  EXPECT_EQ(parsed.num_nodes(), 1);
}

TEST(MachineIo, ParseErrorsCarryLineNumbers) {
  try {
    (void)machine_from_string(
        "machine broken nodes 1\nproc CPU count oops\n");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MachineIo, RejectsMalformedInput) {
  EXPECT_THROW((void)machine_from_string(""), Error);
  EXPECT_THROW((void)machine_from_string("nonsense header"), Error);
  EXPECT_THROW((void)machine_from_string("machine m nodes 1\nbogus x\n"),
               Error);
  // Structurally valid text that fails machine validation (no channels).
  EXPECT_THROW((void)machine_from_string(
                   "machine m nodes 1\n"
                   "proc CPU count 4 speed 1 launch_overhead 0\n"
                   "mem System count 1 capacity 1024\n"),
               Error);
}

TEST(MachineIo, CommentsAndBlankLinesAreIgnored)
{
  const std::string text =
      "# a machine\n\nmachine m nodes 1\n"
      "proc CPU count 4 speed 1 launch_overhead 0  # cores\n"
      "mem System count 1 capacity 1024\n"
      "affinity CPU System bandwidth 1e9 latency 0\n"
      "channel System System intra bandwidth 1e9 latency 0\n";
  const MachineModel m = machine_from_string(text);
  EXPECT_EQ(m.procs_per_node(ProcKind::kCpu), 4);
}

TEST(TaskGraphIo, RoundTripPreservesStructure) {
  const TaskGraph original = make_pennant(pennant_config_for(2, 1)).graph;
  const TaskGraph parsed =
      task_graph_from_string(task_graph_to_string(original));

  ASSERT_EQ(parsed.num_tasks(), original.num_tasks());
  ASSERT_EQ(parsed.num_collections(), original.num_collections());
  ASSERT_EQ(parsed.num_edges(), original.num_edges());
  EXPECT_EQ(parsed.num_collection_args(), original.num_collection_args());

  for (std::size_t i = 0; i < original.num_tasks(); ++i) {
    const GroupTask& a = original.task(TaskId(i));
    const GroupTask& b = parsed.task(TaskId(i));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_points, b.num_points);
    EXPECT_EQ(a.cost.cpu_seconds_per_point, b.cost.cpu_seconds_per_point);
    EXPECT_EQ(a.cost.gpu_seconds_per_point, b.cost.gpu_seconds_per_point);
    ASSERT_EQ(a.args.size(), b.args.size());
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].collection, b.args[j].collection);
      EXPECT_EQ(a.args[j].privilege, b.args[j].privilege);
      EXPECT_EQ(a.args[j].access_fraction, b.args[j].access_fraction);
    }
  }
  for (std::size_t i = 0; i < original.num_collections(); ++i) {
    EXPECT_EQ(original.collection_bytes(CollectionId(i)),
              parsed.collection_bytes(CollectionId(i)));
  }
  for (std::size_t i = 0; i < original.num_edges(); ++i) {
    const DependenceEdge& a = original.edges()[i];
    const DependenceEdge& b = parsed.edges()[i];
    EXPECT_EQ(a.producer, b.producer);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.cross_iteration, b.cross_iteration);
    EXPECT_EQ(a.carries_data, b.carries_data);
    EXPECT_EQ(a.internode_fraction, b.internode_fraction);
  }
  // The overlap structure — what CCD consumes — survives the round trip.
  EXPECT_EQ(parsed.build_overlap_graph().size(),
            original.build_overlap_graph().size());
}

TEST(TaskGraphIo, RejectsMalformedInput) {
  EXPECT_THROW((void)task_graph_from_string(""), Error);
  EXPECT_THROW((void)task_graph_from_string("region before header"), Error);
  EXPECT_THROW(
      (void)task_graph_from_string("taskgraph x\narg 0 RO 1.0\n"), Error);
  EXPECT_THROW(
      (void)task_graph_from_string("taskgraph x\nunknown directive\n"),
      Error);
}

TEST(FileIo, SaveLoadRoundTrip) {
  const std::string machine_path = "/tmp/automap_io_test.machine";
  const std::string graph_path = "/tmp/automap_io_test.graph";
  save_machine(machine_path, make_shepard(2));
  save_task_graph(graph_path, make_circuit(circuit_config_for(1, 1)).graph);
  EXPECT_EQ(load_machine(machine_path).num_nodes(), 2);
  EXPECT_EQ(load_task_graph(graph_path).num_tasks(), 3u);
  std::remove(machine_path.c_str());
  std::remove(graph_path.c_str());
}

TEST(FileIo, MissingFilesThrow) {
  EXPECT_THROW((void)load_machine("/nonexistent/path.machine"), Error);
  EXPECT_THROW(save_text("/nonexistent/dir/file.txt", "x"), Error);
}

// --- formats read through LineReader ----------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string joined(std::vector<std::string>::const_iterator begin,
                   std::vector<std::string>::const_iterator end) {
  std::string out;
  for (auto it = begin; it != end; ++it) out += *it + "\n";
  return out;
}

/// `lines` with line `i` replaced, joined back into text.
std::string with_line(std::vector<std::string> lines, std::size_t i,
                      const std::string& line) {
  lines.at(i) = line;
  return joined(lines.begin(), lines.end());
}

/// Index of the first line that starts with `prefix`.
std::size_t line_starting(const std::vector<std::string>& lines,
                          const std::string& prefix) {
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (lines[i].rfind(prefix, 0) == 0) return i;
  ADD_FAILURE() << "no line starts with '" << prefix << "'";
  return 0;
}

struct Malformed {
  std::string what;
  std::string text;
};

/// Every case must be refused with an Error whose message names the line.
template <class Read>
void expect_refused_naming_the_line(const std::vector<Malformed>& cases,
                                    const Read& read) {
  for (const Malformed& c : cases) {
    try {
      read(c.text);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

class LineFormats : public ::testing::Test {
 protected:
  LineFormats()
      : app(make_stencil(stencil_config_for(1, 0))),
        machine(make_shepard(1)),
        sim(machine, app.graph, {.iterations = 1, .noise_sigma = 0.0}),
        measured(sim, {.repeats = 1, .seed = 1}) {
    (void)measured.evaluate(search_starting_point(app.graph, machine));
  }

  BenchmarkApp app;
  MachineModel machine;
  Simulator sim;
  /// Holds one measured mapping: the search's starting point.
  Evaluator measured;
};

TEST_F(LineFormats, MalformedMappingNamesTheLine) {
  const auto lines =
      lines_of(search_starting_point(app.graph, machine).serialize());
  ASSERT_GE(lines.size(), 2u);
  expect_refused_naming_the_line(
      {{"truncated", joined(lines.begin(), lines.end() - 1)},
       {"extra field", with_line(lines, 0, lines[0] + " FrameBuffer")},
       {"bad number", with_line(lines, 1, "task 1.5" + lines[1].substr(6))},
       {"repeated task", with_line(lines, 1, lines[0])}},
      [&](const std::string& text) {
        (void)Mapping::parse(text, app.graph);
      });
}

TEST_F(LineFormats, MalformedProfilesDatabaseNamesTheLine) {
  // profiles 1 / entry <mean> / task 0 ... / task 1 ...
  const auto lines = lines_of(measured.view().export_profiles());
  ASSERT_GE(lines.size(), 4u);
  expect_refused_naming_the_line(
      {{"truncated", joined(lines.begin(), lines.end() - 1)},
       {"extra field", with_line(lines, 1, lines[1] + " censored 1")},
       {"bad number", with_line(lines, 1, "entry 0.5x")},
       {"repeated task", with_line(lines, 3, lines[2])},
       {"missing entries", with_line(lines, 0, "profiles 2")}},
      [&](const std::string& text) {
        Evaluator eval(sim, {.repeats = 1});
        eval.import_profiles(text);
      });
}

TEST_F(LineFormats, MalformedEvaluatorStateNamesTheLine) {
  const auto lines = lines_of(measured.serialize_state());
  const std::size_t counters = line_starting(lines, "counters ");
  const std::size_t clocks = line_starting(lines, "clocks ");
  const std::size_t finalist = line_starting(lines, "finalist ");
  expect_refused_naming_the_line(
      {{"truncated", joined(lines.begin(), lines.begin() + clocks + 1)},
       {"extra field", with_line(lines, counters, lines[counters] + " 0")},
       {"bad number", with_line(lines, clocks, "clocks 1e 0")},
       {"negative count", with_line(lines, counters,
                                    "counters -1 0 0 0 0 0 0 0 0 0")},
       {"repeated task",
        with_line(lines, finalist + 2, lines[finalist + 1])}},
      [&](const std::string& text) {
        Evaluator eval(sim, {.repeats = 1});
        eval.restore_state(text);
      });
}

TEST_F(LineFormats, MalformedCheckpointNamesTheLine) {
  const std::string path = ::testing::TempDir() + "automap_line_formats.ckpt";
  SearchOptions options{.rotations = 1, .repeats = 1, .seed = 2};
  options.checkpoint_path = path;
  (void)run_ccd(sim, options);
  const auto lines = lines_of(load_checksummed(path).payload);
  std::remove(path.c_str());
  const std::size_t position = line_starting(lines, "position ");
  const std::size_t order = line_starting(lines, "order ");
  expect_refused_naming_the_line(
      {{"truncated", joined(lines.begin(), lines.end() - 1)},
       {"extra field", with_line(lines, position, lines[position] + " 0")},
       {"bad number", with_line(lines, position, "position 1.5")},
       {"rotation past int", with_line(lines, position - 1,
                                       "rotation 1e300")},
       {"position past the last task", with_line(lines, position,
                                                 "position 999")},
       {"order id out of range", with_line(lines, order, "order 1 999")},
       {"repeated task", with_line(lines, order + 2, lines[order + 1])}},
      [&](const std::string& text) {
        SearchOptions resume{.rotations = 1, .repeats = 1, .seed = 2};
        resume.resume_state = text;
        (void)run_ccd(sim, resume);
      });
}

}  // namespace
}  // namespace automap
