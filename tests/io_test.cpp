// Tests for the text formats: machine models and task graphs (the §3.3
// search-space/machine files), and the malformed-input handling of every
// format read through LineReader (mappings, profiles databases,
// checkpoint logs).

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
#include "tests/process_temp_dir.hpp"

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

/// `text` with the first occurrence of `from` on line `line` (1-based)
/// replaced by `to`.
std::string edited(const std::string& text, int line, const std::string& from,
                   const std::string& to) {
  std::istringstream is(text);
  std::string out;
  int n = 0;
  for (std::string l; std::getline(is, l);) {
    if (++n == line) {
      const std::size_t at = l.find(from);
      EXPECT_NE(at, std::string::npos) << "line " << line << ": " << l;
      if (at != std::string::npos) l.replace(at, from.size(), to);
    }
    out += l + "\n";
  }
  return out;
}

/// Reading `text` must fail with exactly `message`.
template <class Read>
void expect_error(const Read& read, const std::string& text,
                  const std::string& message) {
  try {
    (void)read(text);
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(MachineIo, RealValuedFieldsAreFiniteAndInRangeAtTheirLine) {
  // shepard(2): runtime_overhead (2), restart_overhead (3), proc CPU (4),
  // affinity CPU System (9), channel System System intra (13),
  // cross_socket (25).
  const std::string text = machine_to_string(make_shepard(2));
  const auto read = [](const std::string& t) { return machine_from_string(t); };
  expect_error(read, edited(text, 2, "5.0000000000000002e-05", "nan"),
               "line 2: expected a finite number, got: nan");
  expect_error(read, edited(text, 3, "0.050000000000000003", "-1"),
               "line 3: number -1 outside [0, inf)");
  expect_error(read, edited(text, 4, "speed 1", "speed inf"),
               "line 4: expected a finite number, got: inf");
  expect_error(read, edited(text, 4, "speed 1", "speed 0"),
               "line 4: number 0 outside (0, inf)");
  expect_error(read, edited(text, 4, "watts 6", "watts inf"),
               "line 4: expected a finite number, got: inf");
  expect_error(read, edited(text, 4, "1.0000000000000001e-05", "-1e-9"),
               "line 4: number -1e-9 outside [0, inf)");
  expect_error(read, edited(text, 9, "190000000000", "0"),
               "line 9: number 0 outside (0, inf)");
  expect_error(read, edited(text, 9, "9.9999999999999995e-08", "nan"),
               "line 9: expected a finite number, got: nan");
  expect_error(read, edited(text, 13, "38000000000", "inf"),
               "line 13: expected a finite number, got: inf");
  expect_error(read, edited(text, 25, "34000000000", "-5"),
               "line 25: number -5 outside (0, inf)");
  expect_error(read, edited(text, 25, "34000000000", "1e400"),
               "line 25: expected a number, got: 1e400");
}

TEST(TaskGraphIo, RealValuedFieldsAreFiniteAndInRangeAtTheirLine) {
  // circuit(1, 1): task calc_new_currents (14), its second arg (16), the
  // first edge (32).
  const std::string text =
      task_graph_to_string(make_circuit(circuit_config_for(1, 1)).graph);
  const auto read = [](const std::string& t) {
    return task_graph_from_string(t);
  };
  expect_error(read, edited(text, 14, "0.00015000000000000001", "inf"),
               "line 14: expected a finite number, got: inf");
  expect_error(read, edited(text, 14, "0.00015000000000000001", "0"),
               "line 14: number 0 outside (0, inf)");
  expect_error(read, edited(text, 14, "1.4999999999999998e-06", "nan"),
               "line 14: expected a finite number, got: nan");
  expect_error(read, edited(text, 16, "RO 0.5", "RO nan"),
               "line 16: expected a finite number, got: nan");
  expect_error(read, edited(text, 16, "RO 0.5", "RO 1.5"),
               "line 16: number 1.5 outside (0, 1]");
  expect_error(read, edited(text, 32, "fraction 0", "fraction nan"),
               "line 32: expected a finite number, got: nan");
  expect_error(read, edited(text, 32, "fraction 0", "fraction -0.5"),
               "line 32: number -0.5 outside [0, 1]");
  // A negative GPU cost still means "no GPU variant".
  EXPECT_FALSE(read(edited(text, 14, "1.4999999999999998e-06", "-1"))
                   .task(TaskId(0))
                   .cost.has_gpu_variant());
}

TEST(TaskGraphIo, EdgeOnACollectionItsTaskLacksFailsAtItsLine) {
  const std::string text =
      task_graph_to_string(make_circuit(circuit_config_for(1, 1)).graph);
  const auto read = [](const std::string& t) {
    return task_graph_from_string(t);
  };
  // Line 32 is `edge 0 0 4 4 ...`; calc_new_currents takes collection 4
  // (wire_state), not 3 (node_attrs).
  expect_error(read, edited(text, 32, "edge 0 0 4 4 ", "edge 0 0 3 3 "),
               "line 32: producer task 0 'calc_new_currents' does not take "
               "collection 3 'node_attrs' as an argument");
  expect_error(read, edited(text, 32, "edge 0 0 4 4 ", "edge 0 0 4 3 "),
               "line 32: consumer task 0 'calc_new_currents' does not take "
               "collection 3 'node_attrs' as an argument");
  // Line 35 is `edge 1 0 2 1 ... cross 1`; made same-iteration, it closes
  // a cycle with the edge from calc_new_currents to distribute_charge.
  expect_error(read, edited(text, 35, "cross 1", "cross 0"),
               "invalid task graph: same-iteration dependence cycle: task 0 "
               "'calc_new_currents' -> task 1 'distribute_charge' -> task 0 "
               "'calc_new_currents'");
}

TEST(TaskGraphIo, HeaderCountsMustMatchWhatFollows) {
  const std::string text =
      task_graph_to_string(make_circuit(circuit_config_for(1, 1)).graph);
  ASSERT_EQ(text.rfind("taskgraph regions 5 collections 7 tasks 3 edges 15\n",
                       0),
            0u);
  const auto read = [](const std::string& t) {
    return task_graph_from_string(t);
  };
  expect_error(read, edited(text, 1, "regions 5", "regions 4"),
               "line 1: the header declares 4 regions but the file holds 5");
  expect_error(read, edited(text, 1, "collections 7", "collections 8"),
               "line 1: the header declares 8 collections but the file "
               "holds 7");
  expect_error(read, edited(text, 1, "tasks 3", "tasks 99"),
               "line 1: the header declares 99 tasks but the file holds 3");
  expect_error(read, edited(text, 1, "edges 15", "edges 4"),
               "line 1: the header declares 4 edges but the file holds 15");
  // The counts are required and range-checked at the header's own line.
  expect_error(read, "# comment\n" + edited(text, 1, "edges 15", "edges -1"),
               "line 2: integer -1 outside [0, 2147483647]");
  expect_error(read, "taskgraph\n",
               "line 1: expected: taskgraph regions <n> collections <n> "
               "tasks <n> edges <n>");
  // A header that matches an empty file still holds no task graph.
  expect_error(read, "taskgraph regions 0 collections 0 tasks 0 edges 0\n",
               "invalid task graph: no tasks");
}

TEST(FileIo, SaveLoadRoundTrip) {
  const std::string machine_path = process_temp_path("io_test.machine");
  const std::string graph_path = process_temp_path("io_test.graph");
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

TEST(FileIo, MissingOrUnwritableFilesAreOneLineErrors) {
  expect_error([](const std::string& path) { return load_text(path); },
               "/nonexistent/path.graph",
               "cannot open for reading: /nonexistent/path.graph");
  expect_error(
      [](const std::string& path) {
        save_text(path, "x");
        return 0;
      },
      "/nonexistent/dir/file.txt",
      "cannot open for writing: /nonexistent/dir/file.txt");
  expect_error(
      [](const std::string& path) {
        require_writable_path(path);
        return 0;
      },
      "/nonexistent/dir/x.mapping",
      "cannot write output file: /nonexistent/dir/x.mapping (missing "
      "directory or no permission?)");
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
  const auto lines = lines_of(measured.export_profiles());
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

TEST_F(LineFormats, MalformedCheckpointNamesTheLine) {
  const std::string path = process_temp_path("line_formats.ckpt");
  SearchOptions options{.rotations = 1, .repeats = 1, .seed = 2};
  options.checkpoint_path = path;
  (void)run_ccd(sim, options);
  const std::string log = load_checksummed(path).payload;
  std::remove(path.c_str());
  // automap-checkpoint 3 / algorithm / options / sim / profiles_seed, then
  // one record per executed candidate:
  // <hash> <status> <value> <charge> <transient failures> <retries>.
  const auto lines = lines_of(log);
  const std::size_t first = line_starting(lines, "profiles_seed ") + 1;
  ASSERT_LT(first + 1, lines.size());
  const auto record_with = [&](std::size_t field, const std::string& value) {
    std::istringstream is(lines[first]);
    std::vector<std::string> tokens;
    for (std::string token; is >> token;) tokens.push_back(token);
    tokens.at(field) = value;
    std::string record;
    for (const std::string& token : tokens)
      record += (record.empty() ? "" : " ") + token;
    return with_line(lines, first, record);
  };
  const std::size_t options_at = line_starting(lines, "options ");
  std::string other_seed = lines[options_at];
  const std::string seed = "\"seed\":\"2\"";
  ASSERT_NE(other_seed.find(seed), std::string::npos);
  other_seed.replace(other_seed.find(seed), seed.size(), "\"seed\":\"3\"");

  const auto resume = [&](const std::string& text) {
    SearchOptions resume{.rotations = 1, .repeats = 1, .seed = 2};
    resume.resume_state = text;
    return run_ccd(sim, resume);
  };
  expect_refused_naming_the_line(
      {{"bad version", with_line(lines, 0, "automap-checkpoint 1")},
       {"version 2", with_line(lines, 0, "automap-checkpoint 2")},
       {"other options", with_line(lines, options_at, other_seed)},
       {"extra field", with_line(lines, first, lines[first] + " 0")},
       {"bad number", record_with(2, "0.5x")},
       {"negative charge", record_with(3, "-1")},
       {"NaN value", record_with(2, "nan")},
       {"bad hash", record_with(0, "abc")},
       {"negative count", record_with(5, "-1")},
       {"unknown status", record_with(1, "measured")},
       // Words of outcomes that execute nothing never head a record.
       {"cached status", record_with(1, "cached")},
       {"invalid status", record_with(1, "invalid")},
       {"record cut mid-line",
        joined(lines.begin(), lines.end() - 1) +
            lines.back().substr(0, lines.back().size() / 2)},
       {"record without its newline", log.substr(0, log.size() - 1)}},
      [&](const std::string& text) { (void)resume(text); });

  // A prefix of whole records is a valid, shorter log: the search replays
  // it and runs the rest live, to the same result.
  const SearchResult full = resume(log);
  const SearchResult shorter =
      resume(joined(lines.begin(), lines.begin() + first + 1));
  EXPECT_EQ(shorter.best, full.best);
  EXPECT_EQ(shorter.best_seconds, full.best_seconds);
  EXPECT_EQ(shorter.stats.search_time_s, full.stats.search_time_s);
}

}  // namespace
}  // namespace automap
