// Tests for the provenance journal (src/report/journal.hpp), its
// byte-identity contract across thread counts, the forced-move diff behind
// `explain`'s co-location attributions, and the explain/replay tooling.

#include <gtest/gtest.h>

#include <cstdio>
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
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

/// Runs a stencil CCD search with an in-memory journal at the given thread
/// count and returns the journal text. Fresh registry per run: metric
/// snapshots are embedded in the journal and counters must start at zero.
std::string journal_of_stencil_ccd(int threads,
                                   SearchResult* result = nullptr) {
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
  options.threads = threads;
  const SearchResult r = run_ccd(sim, options);
  if (result != nullptr) *result = r;
  return journal.text();
}

TEST(Journal, ByteIdenticalAcrossThreadCounts) {
  const std::string t1 = journal_of_stencil_ccd(1);
  const std::string t4 = journal_of_stencil_ccd(4);
  const std::string t8 = journal_of_stencil_ccd(8);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t8);
  EXPECT_GT(t1.size(), 1000u);  // a real journal, not an empty file
}

TEST(Journal, SchemaRoundTripAndMonotoneSequence) {
  const std::string text = journal_of_stencil_ccd(1);
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
      EXPECT_FALSE(ev.has("threads"));        // would break byte-identity
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
      // Raw simulator run counters are thread-count-dependent and must
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
  (void)journal_of_stencil_ccd(1, &journaled);
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
      base, candidate, stencil_task, stencil_in, &overlap, graph);
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

TEST(Explain, CoversEveryTaskAndCollectionArgument) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const std::string text = journal_of_stencil_ccd(1);
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

TEST(Explain, RejectsTamperedMoveChains) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  std::string text = journal_of_stencil_ccd(1);
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

TEST(Replay, FreshRunMatchesTheJournal) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const std::string text = journal_of_stencil_ccd(1);
  const ReplayOutcome at1 = replay_journal(machine, app.graph, text, 1);
  EXPECT_FALSE(at1.drift) << at1.rendering;
  EXPECT_NE(at1.rendering.find("no drift"), std::string::npos);
  // By contract the fresh run's thread count cannot matter.
  const ReplayOutcome at4 = replay_journal(machine, app.graph, text, 4);
  EXPECT_FALSE(at4.drift) << at4.rendering;
}

TEST(Replay, DetectsDriftInATamperedJournal) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  std::string text = journal_of_stencil_ccd(1);
  const std::size_t fin = text.find("\"type\":\"finalize\"");
  ASSERT_NE(fin, std::string::npos);
  const std::size_t best = text.find("\"best\":", fin);
  ASSERT_NE(best, std::string::npos);
  text.insert(best + 7, "9");  // 0.0055 -> 90.0055: a different final best
  const ReplayOutcome outcome = replay_journal(machine, app.graph, text, 1);
  EXPECT_TRUE(outcome.drift);
  EXPECT_NE(outcome.rendering.find("DRIFT"), std::string::npos);
}

TEST(Replay, RefusesJournalsItCannotReproduce) {
  const BenchmarkApp app = make_app_by_name("stencil", 2, 1);
  const MachineModel machine = make_shepard(2);
  const std::string text = journal_of_stencil_ccd(1);
  // No finalize: an interrupted search.
  const std::string truncated =
      text.substr(0, text.find("\"type\":\"finalize\""));
  EXPECT_THROW(
      (void)replay_journal(machine, app.graph,
                           truncated.substr(0, truncated.rfind('\n') + 1), 1),
      Error);
  EXPECT_THROW((void)replay_journal(machine, app.graph, "", 1), Error);
  // Version 1 spread the configuration over flat search_begin fields;
  // replay reads only the version-2 codec objects and says so.
  const std::string v1 =
      "{\"n\":0,\"type\":\"journal\",\"version\":1}\n"
      "{\"n\":1,\"type\":\"search_begin\",\"algorithm\":\"AM-CCD\","
      "\"seed\":\"1\",\"rotations\":2}\n"
      "{\"n\":2,\"type\":\"finalize\",\"algorithm\":\"AM-CCD\",\"best\":1}\n";
  try {
    (void)replay_journal(machine, app.graph, v1, 1);
    ADD_FAILURE() << "a version-1 journal was replayed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace automap
