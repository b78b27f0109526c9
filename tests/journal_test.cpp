// Tests for the provenance journal (src/report/journal.hpp), its schema and
// sequence contract, the forced-move diff behind `explain`'s co-location
// attributions, and the explain/replay tooling.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/report/explain.hpp"
#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/extra_algorithms.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

/// Runs a stencil CCD search with an in-memory journal and returns the
/// journal text. Fresh registry per run: metric snapshots are embedded in
/// the journal and counters must start at zero.
std::string journal_of_stencil_ccd(SearchResult* result = nullptr) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const Simulator sim(machine, app.graph, {});
  Journal journal;
  MetricsRegistry metrics;
  SearchOptions options{.rotations = 3,
                        .repeats = 3,
                        .seed = 42,
                        .export_profiles_db = false,
                        .journal = &journal,
                        .metrics = &metrics};
  const SearchResult r = run_ccd(sim, options);
  if (result != nullptr) *result = r;
  return journal.text();
}

/// Runs the search `automap_cli search --algorithm multistart --seed
/// <seed>` runs on Stencil step 0 over shepard(2), with an in-memory
/// journal, and returns the journal text.
std::string journal_of_stencil_multistart(std::uint64_t seed,
                                          SearchResult& result) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 0);
  const MachineModel machine = make_shepard(2);
  const Simulator sim(machine, app.graph, {});
  Journal journal;
  result = run_ccd_multistart(sim, {.seed = seed, .journal = &journal});
  return journal.text();
}

TEST(Journal, SchemaRoundTripAndMonotoneSequence) {
  const std::string text = journal_of_stencil_ccd();
  std::istringstream is(text);
  std::string line;
  long long expected_n = 0;
  bool saw_search_begin = false, saw_move = false, saw_incumbent = false,
       saw_candidate = false, saw_metrics = false, saw_finalize = false,
       saw_constraint_graph = false, saw_pruned = false;
  while (std::getline(is, line)) {
    const JsonValue ev = parse_json(line);  // throws on malformed JSON
    ASSERT_EQ(static_cast<long long>(ev.num_or("n", -1)), expected_n);
    ++expected_n;
    const std::string type = ev.str_or("type", "");
    if (expected_n == 1) {
      ASSERT_EQ(type, "journal");
      ASSERT_EQ(static_cast<int>(ev.num_or("version", -1)),
                kJournalVersion);
    }
    if (type == "search_begin") {
      saw_search_begin = true;
      EXPECT_EQ(ev.str_or("algorithm", ""), "AM-CCD");
      // Version 2: the configuration travels as canonical codec objects.
      const JsonValue* opts = ev.find("options");
      ASSERT_NE(opts, nullptr);
      EXPECT_EQ(opts->str_or("seed", ""), "42");
      ASSERT_NE(ev.find("sim"), nullptr);
      EXPECT_FALSE(ev.has("threads"));  // runtime wiring stays out
      EXPECT_FALSE(opts->has("threads"));
    } else if (type == "move") {
      saw_move = true;
      EXPECT_TRUE(ev.has("accepted"));
      EXPECT_TRUE(ev.has("rot"));
      EXPECT_TRUE(ev.has("task"));
    } else if (type == "incumbent") {
      saw_incumbent = true;
      EXPECT_TRUE(ev.has("clock"));
      EXPECT_TRUE(ev.has("best"));
    } else if (type == "candidate") {
      saw_candidate = true;
      EXPECT_TRUE(ev.has("status"));
      EXPECT_TRUE(ev.has("hash"));
    } else if (type == "metrics") {
      saw_metrics = true;
      const JsonValue* values = ev.find("values");
      ASSERT_NE(values, nullptr);
      // Raw simulator run counters change with pruning on or off and must
      // never appear in journal snapshots.
      EXPECT_FALSE(values->has("automap_sim_runs_total"));
      EXPECT_TRUE(values->has("automap_candidates_suggested_total"));
    } else if (type == "finalize") {
      saw_finalize = true;
      EXPECT_TRUE(ev.has("winner"));
    } else if (type == "constraint_graph") {
      saw_constraint_graph = true;
    } else if (type == "edges_pruned") {
      saw_pruned = true;
    }
  }
  EXPECT_TRUE(saw_search_begin);
  EXPECT_TRUE(saw_move);
  EXPECT_TRUE(saw_incumbent);
  EXPECT_TRUE(saw_candidate);
  EXPECT_TRUE(saw_metrics);
  EXPECT_TRUE(saw_finalize);
  EXPECT_TRUE(saw_constraint_graph);
  EXPECT_TRUE(saw_pruned);
}

TEST(Journal, DisabledJournalDoesNotPerturbTheSearch) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const Simulator sim(machine, app.graph, {});
  SearchOptions options{
      .rotations = 3, .repeats = 3, .seed = 42, .export_profiles_db = false};
  const SearchResult plain = run_ccd(sim, options);
  SearchResult journaled;
  (void)journal_of_stencil_ccd(&journaled);
  EXPECT_EQ(plain.best_seconds, journaled.best_seconds);
  EXPECT_EQ(plain.best, journaled.best);
  EXPECT_EQ(plain.stats.suggested, journaled.stats.suggested);
  EXPECT_EQ(plain.stats.evaluated, journaled.stats.evaluated);
  EXPECT_EQ(plain.stats.search_time_s, journaled.stats.search_time_s);
  ASSERT_EQ(plain.trajectory.size(), journaled.trajectory.size());
  for (std::size_t i = 0; i < plain.trajectory.size(); ++i)
    EXPECT_EQ(plain.trajectory[i].best_exec_s,
              journaled.trajectory[i].best_exec_s);
}

TEST(Journal, CursorStampingAndEscaping) {
  Journal j;
  j.set_rotation(2);
  j.set_coordinate(5, 7);
  j.event("demo").str("text", "a\"b\\c\nd").integer("k", -3);
  j.clear_cursor();
  j.event("after");
  std::istringstream is(j.text());
  std::string header, demo, after;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, demo));
  ASSERT_TRUE(std::getline(is, after));
  EXPECT_EQ(demo,
            "{\"n\":1,\"type\":\"demo\",\"rot\":2,\"pos\":5,\"task\":7,"
            "\"text\":\"a\\\"b\\\\c\\nd\",\"k\":-3}");
  EXPECT_EQ(after, "{\"n\":2,\"type\":\"after\"}");
  const JsonValue parsed = parse_json(demo);
  EXPECT_EQ(parsed.str_or("text", ""), "a\"b\\c\nd");
}

TEST(Journal, ControlBytesInNamesAreEscaped) {
  std::string name = "name";
  for (char c = 0x01; c < 0x20; ++c) name += c;
  Journal j;
  j.event("demo").str("name", name);
  std::istringstream is(j.text());
  std::string header, demo;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, demo));
  EXPECT_EQ(parse_json(demo).str_or("name", ""), name);

  // A search over a graph whose names hold those bytes writes a journal,
  // metrics snapshots included, and options JSON that all parse.
  TaskGraph graph;
  const RegionId region = graph.add_region("r" + name, Rect::line(0, 999), 8);
  const CollectionId all =
      graph.add_collection(region, "c" + name, Rect::line(0, 999));
  graph.add_task("t" + name, 4, {.cpu_seconds_per_point = 1e-4},
                 {{all, Privilege::kReadWrite}});
  const MachineModel machine = make_shepard(1);
  const SimOptions sim_options{.iterations = 2};
  const Simulator sim(machine, graph, sim_options);
  Journal journal;
  MetricsRegistry metrics;
  SearchOptions options{.rotations = 1, .repeats = 3, .seed = 3};
  options.journal = &journal;
  options.metrics = &metrics;
  (void)run_ccd(sim, options);
  std::istringstream lines(journal.text());
  int parsed = 0;
  for (std::string line; std::getline(lines, line); ++parsed)
    EXPECT_NO_THROW((void)parse_json(line)) << line;
  EXPECT_GT(parsed, 3);
  EXPECT_NO_THROW((void)parse_json(search_options_to_json(options)));
  EXPECT_NO_THROW((void)parse_json(sim_options_to_json(sim_options)));
}

TEST(Journal, FileBackedJournalWritesAndRejectsBadPaths) {
  const std::string path = "journal_test_tmp.jsonl";
  {
    Journal j(path);
    j.event("ping").num("inf_value", std::numeric_limits<double>::infinity());
    j.flush();
  }
  const std::string text = load_text(path);
  EXPECT_NE(text.find("\"type\":\"journal\""), std::string::npos);
  EXPECT_NE(text.find("\"inf_value\":\"inf\""), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(Journal("no-such-dir-xyz/j.jsonl"), Error);
}

TEST(TextIo, RequireWritablePathProbesWithoutClobbering) {
  EXPECT_THROW(require_writable_path("no-such-dir-xyz/out.txt"), Error);
  const std::string path = "writable_probe_tmp.txt";
  require_writable_path(path);
  EXPECT_THROW(load_text(path), Error);  // probe file was removed
  save_text(path, "keep me");
  require_writable_path(path);
  EXPECT_EQ(load_text(path), "keep me");  // existing file untouched
  std::remove(path.c_str());
}

/// The §4.2 pin: the stencil's "in" collection is read by both tasks, so
/// moving stencil's "in" argument must drag increment's "in" argument to
/// the same memory — the forced move `explain` attributes to co-location.
TEST(ForcedMoves, ColocationEdgePinsTheSharedStencilCollection) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const TaskGraph& graph = app.graph;
  const MachineModel machine = make_shepard(2);

  TaskId stencil_task, increment_task;
  for (const GroupTask& t : graph.tasks()) {
    if (t.name == "stencil") stencil_task = t.id;
    if (t.name == "increment") increment_task = t.id;
  }
  auto arg_named = [&](TaskId t, const std::string& name) {
    const GroupTask& task = graph.task(t);
    for (std::size_t a = 0; a < task.args.size(); ++a)
      if (graph.collection(task.args[a].collection).name == name) return a;
    ADD_FAILURE() << "no arg named " << name;
    return std::size_t{0};
  };
  const std::size_t stencil_in = arg_named(stencil_task, "in");
  const std::size_t increment_in = arg_named(increment_task, "in");
  const CollectionId in_id =
      graph.task(stencil_task).args[stencil_in].collection;

  // Same-collection coupling edge for "in", exactly as run_ccd builds it.
  const std::vector<OverlapEdge> edges = {
      {in_id, in_id, graph.collection_bytes(in_id)}};
  const detail::OverlapMap overlap = detail::build_overlap_map(graph, edges);

  const Mapping base = search_starting_point(graph, machine);
  Mapping candidate = base;
  candidate.at(stencil_task).proc = ProcKind::kCpu;
  candidate.set_primary_memory(stencil_task, stencil_in, MemKind::kZeroCopy);
  candidate = detail::colocation_constraints(candidate, stencil_task,
                                             stencil_in, ProcKind::kCpu,
                                             MemKind::kZeroCopy, overlap,
                                             graph, machine);

  const std::vector<detail::ForcedMove> forced = detail::forced_moves(
      base, candidate, stencil_task, stencil_in, overlap, graph);
  bool pinned = false;
  for (const detail::ForcedMove& m : forced) {
    if (m.task == increment_task && !m.proc_change &&
        m.arg == increment_in) {
      EXPECT_EQ(m.mem, MemKind::kZeroCopy);
      EXPECT_TRUE(m.direct);  // same collection = a direct co-location
      pinned = true;
    }
  }
  EXPECT_TRUE(pinned)
      << "moving stencil's 'in' must force increment's 'in' along";
}

TEST(Explain, FallbackWinnerIsComparedByItsDecisions) {
  // Under --fallbacks the winner carries priority lists the incumbent
  // chain never proposed. On this input the final incumbent wins the
  // finalist protocol, and the headline must say so.
  const BenchmarkApp app = make_app_by_name("htr", 2, 0);
  const MachineModel machine = make_shepard(2);
  const Simulator sim(machine, app.graph, {});
  Journal journal;
  const SearchResult result = run_ccd(
      sim, {.seed = 42, .memory_fallbacks = true, .journal = &journal});
  ASSERT_NE(result.best.serialize().find(','), std::string::npos);
  const std::string rendered = render_explain(app.graph, journal.text());
  EXPECT_NE(rendered.find("(the final incumbent)"), std::string::npos)
      << rendered.substr(0, rendered.find('\n', rendered.find("winner")));
  EXPECT_EQ(rendered.find("set by the finalist protocol"), std::string::npos);
}

TEST(Explain, CoversEveryTaskAndCollectionArgument) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const std::string text = journal_of_stencil_ccd();
  const std::string rendered = render_explain(app.graph, text);

  for (const GroupTask& task : app.graph.tasks()) {
    EXPECT_NE(rendered.find(task.name + " (task "), std::string::npos)
        << "missing task " << task.name;
    EXPECT_NE(rendered.find("processor = "), std::string::npos);
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const std::string header =
          "arg " + std::to_string(a) + " (" +
          app.graph.collection(task.args[a].collection).name + ") memory = ";
      EXPECT_NE(rendered.find(header), std::string::npos)
          << "missing " << header << " for " << task.name;
    }
  }
  // The stencil CCD search accepts at least one coordinated move, so some
  // decision must carry a co-location attribution with its constraint edge.
  EXPECT_NE(rendered.find("forced by co-location with"), std::string::npos);
  EXPECT_NE(rendered.find("Δ "), std::string::npos);  // makespan deltas
}

TEST(Explain, MultistartDescribesTheMappingTheSearchReturned) {
  // The processor and memory each task line names are the returned
  // winner's, whichever descent found it.
  const BenchmarkApp app = make_app_by_name("stencil", 2, 0);
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SearchResult result;
    const std::string rendered = render_explain(
        app.graph, journal_of_stencil_multistart(seed, result));
    EXPECT_EQ(rendered.rfind("AM-CCD-multistart decision provenance", 0), 0u)
        << rendered.substr(0, rendered.find('\n'));

    Mapping explained = result.best;
    std::istringstream lines(rendered);
    std::string line;
    std::size_t task = 0;
    std::size_t decisions = 0;
    const auto value_after = [&](const std::string& key) {
      const std::size_t at = line.find(key) + key.size();
      return line.substr(at, line.find(':', at) - at);
    };
    while (std::getline(lines, line)) {
      if (line.find(" (task ") != std::string::npos &&
          line.back() == ':') {
        task = std::stoul(value_after(" (task "));
      } else if (line.rfind("  processor = ", 0) == 0) {
        explained.at(TaskId(task)).proc =
            parse_proc_kind(value_after("processor = "));
        ++decisions;
      } else if (line.rfind("  arg ", 0) == 0) {
        explained.set_primary_memory(TaskId(task),
                                     std::stoul(value_after("  arg ")),
                                     parse_mem_kind(value_after("memory = ")));
        ++decisions;
      }
    }
    EXPECT_EQ(decisions,
              app.graph.num_tasks() + app.graph.num_collection_args());
    for (const GroupTask& t : app.graph.tasks()) {
      EXPECT_EQ(explained.at(t.id).proc, result.best.at(t.id).proc)
          << t.name;
      for (std::size_t a = 0; a < t.args.size(); ++a)
        EXPECT_EQ(explained.primary_memory(t.id, a),
                  result.best.primary_memory(t.id, a))
            << t.name << " arg " << a;
    }
  }
}

TEST(Explain, RejectsTamperedMoveChains) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  std::string text = journal_of_stencil_ccd();
  // Flip an accepted move's memory kind: the replayed chain no longer
  // reproduces the recorded mapping hash.
  const std::size_t pos = text.find("\"accepted\":true");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t line_start = text.rfind('\n', pos) + 1;
  const std::size_t mem = text.find("\"mem\":\"ZeroCopy\"", line_start);
  if (mem != std::string::npos && mem < text.find('\n', pos)) {
    text.replace(mem, 16, "\"mem\":\"System\"");
    EXPECT_THROW(render_explain(app.graph, text), Error);
  } else {
    // Seed-dependent layout fallback: corrupt the recorded hash instead.
    const std::size_t hash = text.find("\"hash\":\"", pos);
    ASSERT_NE(hash, std::string::npos);
    text[hash + 8] = text[hash + 8] == '0' ? '1' : '0';
    EXPECT_THROW(render_explain(app.graph, text), Error);
  }
}

TEST(Explain, MalformedIntegerFieldsAreOneLineErrors) {
  // Each case sets one integer field of a real journal to 1e300: the first
  // `key` after `anchor` on the first line holding both `anchor` and
  // `line_has`. explain must refuse it with a one-line Error naming the
  // field, where a cast of the double would be undefined behaviour.
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const std::string text = journal_of_stencil_ccd();
  struct Case {
    const char* field;
    const char* line_has;  // explain replays only accepted moves
    const char* anchor;
    const char* key;
  };
  const char* accepted = "\"accepted\":true";
  const Case cases[] = {
      {"version", "", "\"type\":\"journal\"", "\"version\":"},
      {"n", "", "{\"n\":1,", "\"n\":"},
      {"rot", accepted, "\"type\":\"move\",\"rot\":", "\"rot\":"},
      {"task", accepted, "\"pos\":", "\"task\":"},
      {"arg", accepted, "\"kind\":\"placement\",\"arg\":", "\"arg\":"},
      {"task", accepted, "\"forced\":[{", "\"task\":"},
      {"arg", accepted, "\"forced\":[{\"task\":", "\"arg\":"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " after " + c.anchor);
    std::size_t anchor = text.find(c.anchor);
    for (; anchor != std::string::npos;
         anchor = text.find(c.anchor, anchor + 1)) {
      const std::size_t begin = text.rfind('\n', anchor) + 1;
      const std::string line =
          text.substr(begin, text.find('\n', anchor) - begin);
      if (line.find(c.line_has) != std::string::npos) break;
    }
    ASSERT_NE(anchor, std::string::npos);
    const std::size_t value = text.find(c.key, anchor) + std::strlen(c.key);
    ASSERT_LT(value, text.find('\n', anchor));
    std::string bad = text;
    bad.replace(value, bad.find_first_of(",}", value) - value, "1e300");
    try {
      (void)render_explain(app.graph, bad);
      ADD_FAILURE() << "explain accepted " << c.field << " = 1e300";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + c.field + "'"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(Replay, FreshRunMatchesTheJournal) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const std::string text = journal_of_stencil_ccd();
  const ReplayOutcome outcome = replay_journal(machine, app.graph, text);
  EXPECT_FALSE(outcome.drift) << outcome.rendering;
  EXPECT_NE(outcome.rendering.find("no drift"), std::string::npos);
}

TEST(Replay, MultistartJournalIsOneSearch) {
  // One search_begin, a restart record per later descent, one finalize;
  // a fresh run reproduces it.
  const BenchmarkApp app = make_app_by_name("stencil", 2, 0);
  SearchResult result;
  const std::string text = journal_of_stencil_multistart(1, result);
  const auto count = [&](const std::string& type) {
    std::size_t n = 0;
    for (std::size_t at = text.find("\"type\":\"" + type + "\"");
         at != std::string::npos;
         at = text.find("\"type\":\"" + type + "\"", at + 1))
      ++n;
    return n;
  };
  EXPECT_EQ(count("search_begin"), 1u);
  EXPECT_EQ(count("restart"), 2u);
  EXPECT_EQ(count("finalize"), 1u);
  const ReplayOutcome outcome =
      replay_journal(make_shepard(2), app.graph, text);
  EXPECT_FALSE(outcome.drift) << outcome.rendering;
}

TEST(Replay, DetectsDriftInATamperedJournal) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  std::string text = journal_of_stencil_ccd();
  const std::size_t fin = text.find("\"type\":\"finalize\"");
  ASSERT_NE(fin, std::string::npos);
  const std::size_t best = text.find("\"best\":", fin);
  ASSERT_NE(best, std::string::npos);
  text.insert(best + 7, "9");  // 0.0055 -> 90.0055: a different final best
  const ReplayOutcome outcome = replay_journal(machine, app.graph, text);
  EXPECT_TRUE(outcome.drift);
  EXPECT_NE(outcome.rendering.find("DRIFT"), std::string::npos);
}

TEST(Replay, RefusesJournalsItCannotReproduce) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const std::string text = journal_of_stencil_ccd();
  // No finalize: an interrupted search.
  const std::string truncated =
      text.substr(0, text.find("\"type\":\"finalize\""));
  EXPECT_THROW(
      (void)replay_journal(machine, app.graph,
                           truncated.substr(0, truncated.rfind('\n') + 1)),
      Error);
  EXPECT_THROW((void)replay_journal(machine, app.graph, ""), Error);
  // Version 1 spread the configuration over flat search_begin fields;
  // replay reads only the version-2 codec objects and says so.
  const std::string v1 =
      "{\"n\":0,\"type\":\"journal\",\"version\":1}\n"
      "{\"n\":1,\"type\":\"search_begin\",\"algorithm\":\"AM-CCD\","
      "\"seed\":\"1\",\"rotations\":2}\n"
      "{\"n\":2,\"type\":\"finalize\",\"algorithm\":\"AM-CCD\",\"best\":1}\n";
  try {
    (void)replay_journal(machine, app.graph, v1);
    ADD_FAILURE() << "a version-1 journal was replayed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace automap
