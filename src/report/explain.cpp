#include "src/report/explain.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/mapping/mapping.hpp"
#include "src/report/analysis.hpp"
#include "src/report/journal.hpp"
#include "src/search/algorithms.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/format.hpp"
#include "src/support/json.hpp"

namespace automap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Splits journal text into parsed JSONL events and validates the header
/// (first record: type "journal" with a supported schema version) and the
/// monotone sequence numbers the byte-identity contract promises.
std::vector<JsonValue> parse_journal(const std::string& text) {
  std::vector<JsonValue> events;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      events.push_back(parse_json(line));
    } catch (const Error& e) {
      throw Error("journal line " + std::to_string(line_no) + ": " +
                  e.what());
    }
  }
  AM_REQUIRE(!events.empty(), "journal is empty");
  AM_REQUIRE(events.front().str_or("type", "") == "journal",
             "journal does not start with a header record");
  const int version =
      static_cast<int>(events.front().num_or("version", -1));
  AM_REQUIRE(version >= 1 && version <= kJournalVersion,
             "unsupported journal schema version " +
                 std::to_string(version) + " (this build reads <= " +
                 std::to_string(kJournalVersion) + ")");
  long long prev = -1;
  for (const JsonValue& ev : events) {
    const long long n = static_cast<long long>(ev.num_or("n", -1));
    AM_REQUIRE(n == prev + 1, "journal sequence broken at event n=" +
                                  std::to_string(n) + " (expected " +
                                  std::to_string(prev + 1) + ")");
    prev = n;
  }
  return events;
}

/// Why one decision holds its final value: the accepted move that set it,
/// or nothing (start default / custom start).
struct Provenance {
  long long move_n = -1;  // journal sequence of the accepted move; -1 = start
  int rotation = -1;
  bool has_delta = false;
  double delta = 0.0;
  /// Set when the decision was not the move's primary choice but a
  /// co-location consequence of it.
  bool forced = false;
  std::size_t by_task = 0;  // the primary (task, arg) that dragged it
  std::size_t by_arg = 0;
  std::string via;  // colocation | transitive | addressability | repair
};

/// One search segment: everything between a search_begin and its finalize.
/// Multi-start journals contain several.
struct Segment {
  std::string algorithm;
  Mapping current;  // start mapping, updated by the accepted-move chain
  bool custom_start = false;
  long long accepted = 0;
  long long rejected = 0;
  std::vector<Provenance> dist_prov;
  std::vector<Provenance> proc_prov;
  std::vector<std::vector<Provenance>> mem_prov;
  bool finalized = false;
  double best = kInf;
  std::string winner_serialized;
};

Segment make_segment(const TaskGraph& graph, const JsonValue& sb) {
  Segment seg;
  seg.algorithm = sb.str_or("algorithm", "?");
  seg.custom_start = sb.bool_or("custom_start", false);
  const std::string start = sb.str_or("start", "");
  AM_REQUIRE(!start.empty(), "search_begin record has no start mapping");
  seg.current = Mapping::parse(start, graph);
  seg.dist_prov.resize(graph.num_tasks());
  seg.proc_prov.resize(graph.num_tasks());
  seg.mem_prov.resize(graph.num_tasks());
  for (const GroupTask& task : graph.tasks())
    seg.mem_prov[task.id.index()].resize(task.args.size());
  return seg;
}

/// Applies one accepted `move` event to the segment's incumbent chain and
/// records provenance for every decision the move changed. Verifies the
/// recorded post-move hash against the replayed mapping.
void apply_move(Segment& seg, const JsonValue& ev, const TaskGraph& graph) {
  const long long n = static_cast<long long>(ev.num_or("n", -1));
  const int rotation = static_cast<int>(ev.num_or("rot", -1));
  const long long t = static_cast<long long>(ev.num_or("task", -1));
  AM_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < graph.num_tasks(),
             "move event n=" + std::to_string(n) +
                 " has no valid task cursor");
  const TaskId task(static_cast<std::size_t>(t));
  const bool has_delta = ev.has("delta");
  const double delta = ev.num_or("delta", 0.0);
  const Provenance primary{.move_n = n,
                           .rotation = rotation,
                           .has_delta = has_delta,
                           .delta = delta};

  const std::string kind = ev.str_or("kind", "");
  if (kind == "distribution") {
    TaskMapping& tm = seg.current.at(task);
    tm.distribute = ev.bool_or("distribute", tm.distribute);
    tm.blocked = ev.bool_or("blocked", tm.blocked);
    seg.dist_prov[task.index()] = primary;
  } else if (kind == "placement") {
    const long long arg = static_cast<long long>(ev.num_or("arg", -1));
    AM_REQUIRE(arg >= 0, "placement move n=" + std::to_string(n) +
                             " has no arg field");
    const ProcKind proc = parse_proc_kind(ev.str_or("proc", ""));
    const MemKind mem = parse_mem_kind(ev.str_or("mem", ""));
    if (seg.current.at(task).proc != proc) {
      seg.current.at(task).proc = proc;
      seg.proc_prov[task.index()] = primary;
    }
    if (seg.current.primary_memory(task, static_cast<std::size_t>(arg)) !=
        mem) {
      seg.current.set_primary_memory(task, static_cast<std::size_t>(arg),
                                     mem);
      seg.mem_prov[task.index()][static_cast<std::size_t>(arg)] = primary;
    }
    if (const JsonValue* forced = ev.find("forced")) {
      for (const JsonValue& f : forced->array) {
        const auto ft = static_cast<std::size_t>(f.num_or("task", 0));
        AM_REQUIRE(ft < graph.num_tasks(),
                   "forced move task out of range at n=" +
                       std::to_string(n));
        Provenance prov = primary;
        prov.forced = true;
        prov.by_task = task.index();
        prov.by_arg = static_cast<std::size_t>(arg);
        prov.via = f.str_or("via", "?");
        if (f.has("proc")) {
          seg.current.at(TaskId(ft)).proc =
              parse_proc_kind(f.str_or("proc", ""));
          seg.proc_prov[ft] = prov;
        } else {
          const auto fa = static_cast<std::size_t>(f.num_or("arg", 0));
          AM_REQUIRE(fa < seg.mem_prov[ft].size(),
                     "forced move arg out of range at n=" +
                         std::to_string(n));
          seg.current.set_primary_memory(TaskId(ft), fa,
                                         parse_mem_kind(f.str_or("mem", "")));
          seg.mem_prov[ft][fa] = prov;
        }
      }
    }
  } else {
    throw Error("unknown move kind '" + kind + "' at journal event n=" +
                std::to_string(n));
  }

  // Integrity: the journal records the hash of the mapping each accepted
  // move produced. A mismatch means the journal was edited or the replay
  // semantics drifted from the emitting code.
  const std::string recorded = ev.str_or("hash", "");
  AM_REQUIRE(recorded == hex_u64(seg.current.hash()),
             "journal hash mismatch at event n=" + std::to_string(n) +
                 ": the accepted-move chain does not reproduce the "
                 "recorded mapping (corrupted or edited journal?)");
}

/// Walks all events into segments. Every accepted move is replayed;
/// rejected moves only count.
std::vector<Segment> build_segments(const std::vector<JsonValue>& events,
                                    const TaskGraph& graph) {
  std::vector<Segment> segments;
  for (const JsonValue& ev : events) {
    const std::string type = ev.str_or("type", "");
    if (type == "search_begin") {
      segments.push_back(make_segment(graph, ev));
      continue;
    }
    if (segments.empty()) continue;  // header / pre-search records
    Segment& seg = segments.back();
    if (type == "move") {
      if (ev.bool_or("accepted", false)) {
        ++seg.accepted;
        apply_move(seg, ev, graph);
      } else {
        ++seg.rejected;
      }
    } else if (type == "finalize") {
      seg.finalized = true;
      seg.best = ev.wide_num_or("best", kInf);
      seg.winner_serialized = ev.str_or("winner", "");
    }
  }
  AM_REQUIRE(!segments.empty(), "journal has no search_begin record");
  return segments;
}

std::string describe_delta(const Provenance& p) {
  if (!p.has_delta) return "";
  const std::string magnitude = format_seconds(std::abs(p.delta));
  return p.delta <= 0.0 ? "-" + magnitude : "+" + magnitude;
}

/// "move #41 (rotation 2, Δ -1.2ms)" or "start default".
std::string describe_provenance(const Provenance& p, const TaskGraph& graph,
                                bool custom_start) {
  if (p.move_n < 0)
    return custom_start ? "custom starting mapping" : "start default (§4.1)";
  std::ostringstream os;
  os << "move #" << p.move_n;
  if (p.rotation >= 0) os << " (rotation " << p.rotation << ")";
  const std::string delta = describe_delta(p);
  if (!delta.empty()) os << ", Δ " << delta;
  if (p.forced) {
    const GroupTask& by = graph.task(TaskId(p.by_task));
    os << " — forced by co-location with " << by.name << " arg "
       << p.by_arg << " ("
       << graph.collection(by.args[p.by_arg].collection).name << ") via "
       << p.via;
  }
  return os.str();
}

}  // namespace

std::string render_explain(const TaskGraph& graph,
                           const std::string& journal_text) {
  const std::vector<JsonValue> events = parse_journal(journal_text);
  std::vector<Segment> segments = build_segments(events, graph);

  // Multi-start journals hold one segment per restart; the overall winner
  // is the finalized segment with the best final mean.
  Segment* seg = nullptr;
  for (Segment& s : segments)
    if (s.finalized && (seg == nullptr || s.best < seg->best)) seg = &s;
  const bool unfinished = seg == nullptr;
  if (unfinished) seg = &segments.back();  // interrupted search: best effort

  std::ostringstream os;
  os << seg->algorithm << " decision provenance — " << graph.num_tasks()
     << " tasks, " << graph.num_collection_args() << " collection args, "
     << seg->accepted << " accepted / " << (seg->accepted + seg->rejected)
     << " total moves";
  if (segments.size() > 1)
    os << " (best of " << segments.size() << " starts)";
  os << "\n";
  if (unfinished)
    os << "warning: journal has no finalize record (interrupted search); "
          "explaining the last incumbent\n";

  // The finalist protocol re-measures the top-k candidates and may crown a
  // finalist other than the last incumbent. Decisions where the winner and
  // the incumbent chain agree keep their move provenance; the rest are
  // attributed to the finalist protocol.
  Mapping winner = seg->current;
  bool winner_is_incumbent = true;
  if (!seg->winner_serialized.empty()) {
    winner = Mapping::parse(seg->winner_serialized, graph);
    winner_is_incumbent = winner == seg->current;
  }
  if (seg->finalized) {
    os << "winner: " << format_seconds(seg->best)
       << (winner_is_incumbent
               ? " (the final incumbent)"
               : " (a finalist, not the final incumbent — overridden "
                 "decisions marked below)")
       << "\n";
  }

  for (const GroupTask& task : graph.tasks()) {
    const std::size_t ti = task.id.index();
    const TaskMapping& tm = winner.at(task.id);
    const TaskMapping& chain = seg->current.at(task.id);
    os << "\n" << task.name << " (task " << ti << "):\n";

    const char* dist = !tm.distribute  ? "leader-only"
                       : tm.blocked    ? "distributed blocked"
                                       : "distributed round-robin";
    os << "  distribution = " << dist << ": ";
    if (tm.distribute == chain.distribute && tm.blocked == chain.blocked)
      os << describe_provenance(seg->dist_prov[ti], graph,
                                seg->custom_start);
    else
      os << "set by the finalist protocol";
    os << "\n";

    os << "  processor = " << to_string(tm.proc) << ": ";
    if (tm.proc == chain.proc)
      os << describe_provenance(seg->proc_prov[ti], graph,
                                seg->custom_start);
    else
      os << "set by the finalist protocol";
    os << "\n";

    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const MemKind mem = winner.primary_memory(task.id, a);
      os << "  arg " << a << " ("
         << graph.collection(task.args[a].collection).name
         << ") memory = " << to_string(mem) << ": ";
      if (mem == seg->current.primary_memory(task.id, a))
        os << describe_provenance(seg->mem_prov[ti][a], graph,
                                  seg->custom_start);
      else
        os << "set by the finalist protocol";
      os << "\n";
    }
  }
  return os.str();
}

ReplayOutcome replay_journal(const MachineModel& machine,
                             const TaskGraph& graph,
                             const std::string& journal_text, int threads) {
  const std::vector<JsonValue> events = parse_journal(journal_text);

  const JsonValue* sb = nullptr;
  const JsonValue* fin = nullptr;
  std::vector<std::pair<double, double>> recorded;  // (clock, best)
  long long candidates = 0;
  for (const JsonValue& ev : events) {
    const std::string type = ev.str_or("type", "");
    if (type == "search_begin") {
      AM_REQUIRE(sb == nullptr,
                 "replay requires a single-search journal; this one holds "
                 "several search_begin records (multi-start?)");
      sb = &ev;
    } else if (type == "incumbent") {
      recorded.emplace_back(ev.wide_num_or("clock", 0.0),
                            ev.wide_num_or("best", kInf));
    } else if (type == "finalize") {
      fin = &ev;
    } else if (type == "candidate") {
      ++candidates;
    }
  }
  AM_REQUIRE(sb != nullptr, "journal has no search_begin record");
  AM_REQUIRE(fin != nullptr,
             "journal has no finalize record (interrupted search cannot "
             "be replayed)");
  AM_REQUIRE(!sb->bool_or("resumed", false),
             "journal records a resumed search; replay needs the original "
             "checkpoint state it does not carry");
  AM_REQUIRE(!sb->bool_or("seeded_profiles", false),
             "journal records a search seeded from a profiles database; "
             "replay cannot reconstruct it");
  AM_REQUIRE(!sb->bool_or("custom_start", false),
             "journal records a custom starting mapping; replay only "
             "covers registry entry points");

  const std::string label = sb->str_or("algorithm", "?");
  const SearchAlgorithmInfo* info = nullptr;
  for (const SearchAlgorithmInfo& row : search_algorithms())
    if (row.label == label) info = &row;
  AM_REQUIRE(info != nullptr,
             "journal algorithm '" + label + "' is not in the registry");

  // Rebuild the recorded configuration. Every deterministic input is in
  // the search_begin record; the thread count deliberately is not (it
  // cannot change the outcome), so the caller picks it.
  const JsonValue* opts = sb->find("options");
  const JsonValue* sim_obj = sb->find("sim");
  AM_REQUIRE(opts != nullptr && sim_obj != nullptr,
             "search_begin has no 'options'/'sim' record; replay needs a "
             "journal of version 2 or later");
  SearchOptions options = search_options_from_json(*opts);
  const SimOptions sim_options = sim_options_from_json(*sim_obj);
  options.threads = threads;
  options.export_profiles_db = false;

  const Simulator sim(machine, graph, sim_options);
  const SearchResult fresh = info->run(sim, options);

  std::ostringstream os;
  os << "replay of " << label << " journal: " << events.size()
     << " events, " << candidates << " candidate records, "
     << recorded.size() << " incumbent improvements\n";
  if (recorded.size() > 1) {
    std::vector<double> bests;
    bests.reserve(recorded.size());
    for (const auto& [clock, best] : recorded) bests.push_back(best);
    os << "recorded convergence: " << render_sparkline(bests) << " ("
       << format_seconds(bests.front()) << " -> "
       << format_seconds(bests.back()) << ")\n";
  }

  // Cross-check. Journal doubles are %.17g renderings, which round-trip
  // exactly, so the comparison is exact equality — any difference is real
  // drift between the journal and a fresh run of today's code.
  std::vector<std::string> drift;
  if (fresh.trajectory.size() != recorded.size()) {
    drift.push_back("incumbent count: recorded " +
                    std::to_string(recorded.size()) + ", fresh run " +
                    std::to_string(fresh.trajectory.size()));
  } else {
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      if (fresh.trajectory[i].search_time_s != recorded[i].first ||
          fresh.trajectory[i].best_exec_s != recorded[i].second) {
        drift.push_back(
            "incumbent #" + std::to_string(i) + ": recorded (" +
            format_seconds(recorded[i].first) + ", " +
            format_seconds(recorded[i].second) + "), fresh run (" +
            format_seconds(fresh.trajectory[i].search_time_s) + ", " +
            format_seconds(fresh.trajectory[i].best_exec_s) + ")");
        break;
      }
    }
  }
  const double recorded_best = fin->wide_num_or("best", kInf);
  if (fresh.best_seconds != recorded_best) {
    drift.push_back("final best: recorded " +
                    format_seconds(recorded_best) + ", fresh run " +
                    format_seconds(fresh.best_seconds));
  }
  const std::string recorded_winner = fin->str_or("winner", "");
  if (fresh.best.serialize() != recorded_winner)
    drift.push_back("winning mapping differs from the recorded one");

  ReplayOutcome outcome;
  outcome.drift = !drift.empty();
  if (outcome.drift) {
    os << "cross-check: DRIFT DETECTED\n";
    for (const std::string& d : drift) os << "  " << d << "\n";
  } else {
    os << "cross-check: no drift — " << recorded.size()
       << " incumbents, final best and winning mapping all match the "
          "fresh run\n";
  }
  outcome.rendering = os.str();
  return outcome;
}

}  // namespace automap
