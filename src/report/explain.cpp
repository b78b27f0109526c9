#include "src/report/explain.hpp"

#include <algorithm>
#include <climits>
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

/// A journal is outside input: a check on it fails with a plain one-line
/// Error.
void require(bool ok, const std::string& message) {
  if (!ok) throw Error(message);
}

/// Largest valid index into a container of `size` elements, as the upper
/// bound of a strict integer field (-1 when empty: every index is refused).
int last_index(std::size_t size) {
  return static_cast<int>(std::min<std::size_t>(size, INT_MAX)) - 1;
}

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
  require(!events.empty(), "journal is empty");
  require(events.front().str_or("type", "") == "journal",
          "journal does not start with a header record");
  const int version = json_int_or(events.front(), "version", -1);
  require(version >= 1 && version <= kJournalVersion,
          "unsupported journal schema version " +
              std::to_string(version) + " (this build reads <= " +
              std::to_string(kJournalVersion) + ")");
  long long prev = -1;
  for (const JsonValue& ev : events) {
    const long long n = json_int_or(ev, "n", -1, 0);
    if (n != prev + 1)
      throw Error("journal sequence broken at event n=" + std::to_string(n) +
                  " (expected " + std::to_string(prev + 1) + ")");
    prev = n;
  }
  return events;
}

/// Why one decision holds its final value: the accepted move that set it,
/// or nothing (the chain's start).
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

/// One accepted-move chain: from a start (a search_begin or a multistart
/// restart record) to the incumbent before the next start.
struct Chain {
  Mapping current;  // start mapping, updated by the accepted-move chain
  long long accepted = 0;
  long long rejected = 0;
  std::vector<Provenance> dist_prov;
  std::vector<Provenance> proc_prov;
  std::vector<Provenance> mem_prov;  // by flat argument id
};

/// A journal's search: its chains and its finalize record (null when the
/// search was interrupted), which points into the parsed events.
struct Search {
  std::string algorithm;
  std::vector<Chain> chains;
  const JsonValue* finalize = nullptr;
};

Chain make_chain(const TaskGraph& graph, const JsonValue& ev) {
  const std::string start = ev.str_or("start", "");
  require(!start.empty(), ev.str_or("type", "?") +
                              " record has no start mapping");
  Chain chain;
  chain.current = Mapping::parse(start, graph);
  chain.dist_prov.resize(graph.num_tasks());
  chain.proc_prov.resize(graph.num_tasks());
  chain.mem_prov.resize(graph.num_collection_args());
  return chain;
}

/// Applies one accepted `move` event to the chain's incumbent and records
/// provenance for every decision the move changed. Verifies the recorded
/// post-move hash against the replayed mapping.
void apply_move(Chain& chain, const JsonValue& ev, const TaskGraph& graph) {
  const int n = json_int_or(ev, "n", -1, 0);
  const int rotation = json_int_or(ev, "rot", -1, 0);
  const int t = json_int_or(ev, "task", -1, 0, last_index(graph.num_tasks()));
  require(t >= 0, "move event n=" + std::to_string(n) +
                      " has no task cursor");
  const TaskId task(static_cast<std::size_t>(t));
  const bool has_delta = ev.has("delta");
  const double delta = ev.num_or("delta", 0.0);
  const Provenance primary{.move_n = n,
                           .rotation = rotation,
                           .has_delta = has_delta,
                           .delta = delta};

  const std::string kind = ev.str_or("kind", "");
  if (kind == "distribution") {
    TaskMapping& tm = chain.current.at(task);
    tm.distribute = ev.bool_or("distribute", tm.distribute);
    tm.blocked = ev.bool_or("blocked", tm.blocked);
    chain.dist_prov[task.index()] = primary;
  } else if (kind == "placement") {
    const int arg = json_int_or(ev, "arg", -1, 0,
                                last_index(graph.task(task).args.size()));
    require(arg >= 0, "placement move n=" + std::to_string(n) +
                          " has no arg field");
    const ProcKind proc = parse_proc_kind(ev.str_or("proc", ""));
    const MemKind mem = parse_mem_kind(ev.str_or("mem", ""));
    if (chain.current.at(task).proc != proc) {
      chain.current.at(task).proc = proc;
      chain.proc_prov[task.index()] = primary;
    }
    if (chain.current.primary_memory(task, static_cast<std::size_t>(arg)) !=
        mem) {
      chain.current.set_primary_memory(task, static_cast<std::size_t>(arg),
                                       mem);
      chain.mem_prov[graph.arg_offsets()[task.index()] + arg] = primary;
    }
    if (const JsonValue* forced = ev.find("forced")) {
      for (const JsonValue& f : forced->array) {
        const auto ft = static_cast<std::size_t>(
            json_int_or(f, "task", 0, 0, last_index(graph.num_tasks())));
        Provenance prov = primary;
        prov.forced = true;
        prov.by_task = task.index();
        prov.by_arg = static_cast<std::size_t>(arg);
        prov.via = f.str_or("via", "?");
        if (f.has("proc")) {
          chain.current.at(TaskId(ft)).proc =
              parse_proc_kind(f.str_or("proc", ""));
          chain.proc_prov[ft] = prov;
        } else {
          const auto fa = static_cast<std::size_t>(
              json_int_or(f, "arg", 0, 0,
                          last_index(graph.task(TaskId(ft)).args.size())));
          chain.current.set_primary_memory(
              TaskId(ft), fa, parse_mem_kind(f.str_or("mem", "")));
          chain.mem_prov[graph.arg_offsets()[ft] + fa] = prov;
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
  if (recorded != hex_u64(chain.current.hash()))
    throw Error("journal hash mismatch at event n=" + std::to_string(n) +
                ": the accepted-move chain does not reproduce the "
                "recorded mapping (corrupted or edited journal?)");
}

/// Walks all events into chains, one per search_begin or restart record.
/// Every accepted move is replayed; rejected moves only count.
Search build_search(const std::vector<JsonValue>& events,
                    const TaskGraph& graph) {
  Search search;
  for (const JsonValue& ev : events) {
    const std::string type = ev.str_or("type", "");
    if (type == "search_begin" || type == "restart") {
      if (search.chains.empty())
        search.algorithm = ev.str_or("algorithm", "?");
      search.chains.push_back(make_chain(graph, ev));
      continue;
    }
    if (search.chains.empty()) continue;  // header / pre-search records
    Chain& chain = search.chains.back();
    if (type == "move") {
      if (ev.bool_or("accepted", false)) {
        ++chain.accepted;
        apply_move(chain, ev, graph);
      } else {
        ++chain.rejected;
      }
    } else if (type == "finalize") {
      search.finalize = &ev;
    }
  }
  require(!search.chains.empty(), "journal has no search_begin record");
  return search;
}

/// True when `a` and `b` make the same primary decisions. The winner's
/// fallback memories (--fallbacks) are no decision, so only primaries count.
bool same_decisions(const Mapping& a, const Mapping& b,
                    const TaskGraph& graph) {
  for (const GroupTask& task : graph.tasks()) {
    if (a.at(task.id) != b.at(task.id)) return false;
    for (std::size_t i = 0; i < task.args.size(); ++i)
      if (a.primary_memory(task.id, i) != b.primary_memory(task.id, i))
        return false;
  }
  return true;
}

std::string describe_delta(const Provenance& p) {
  if (!p.has_delta) return "";
  const std::string magnitude = format_seconds(std::abs(p.delta));
  return p.delta <= 0.0 ? "-" + magnitude : "+" + magnitude;
}

/// "move #41 (rotation 2, Δ -1.2ms)", or the start of chain `chain`: the
/// search's own (0) or a multistart restart's.
std::string describe_provenance(const Provenance& p, const TaskGraph& graph,
                                std::size_t chain) {
  if (p.move_n < 0)
    return chain == 0 ? "start default (§4.1)"
                      : "random restart " + std::to_string(chain);
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
  const Search search = build_search(events, graph);
  const std::vector<Chain>& chains = search.chains;

  // The finalist protocol crowns one mapping, which may be a finalist other
  // than any chain's final incumbent. Explain the first chain that ended on
  // the winner's decisions, or else the last chain: decisions where the
  // winner and that chain agree keep their move provenance, the rest are
  // attributed to the finalist protocol.
  const std::string serialized =
      search.finalize != nullptr ? search.finalize->str_or("winner", "") : "";
  const Mapping winner =
      serialized.empty() ? chains.back().current  // interrupted: best effort
                         : Mapping::parse(serialized, graph);
  std::size_t c = 0;
  while (c + 1 < chains.size() &&
         !same_decisions(winner, chains[c].current, graph))
    ++c;
  const Chain& chain = chains[c];
  const bool winner_is_incumbent =
      same_decisions(winner, chain.current, graph);

  std::ostringstream os;
  os << search.algorithm << " decision provenance — " << graph.num_tasks()
     << " tasks, " << graph.num_collection_args() << " collection args, "
     << chain.accepted << " accepted / " << (chain.accepted + chain.rejected)
     << " total moves";
  if (chains.size() > 1)
    os << " (descent " << c + 1 << " of " << chains.size() << ")";
  os << "\n";
  if (search.finalize != nullptr) {
    os << "winner: "
       << format_seconds(search.finalize->wide_num_or("best", kInf))
       << (winner_is_incumbent
               ? " (the final incumbent)"
               : " (a finalist, not the final incumbent — overridden "
                 "decisions marked below)")
       << "\n";
  } else {
    os << "warning: journal has no finalize record (interrupted search); "
          "explaining the last incumbent\n";
  }

  for (const GroupTask& task : graph.tasks()) {
    const std::size_t ti = task.id.index();
    const TaskMapping& tm = winner.at(task.id);
    const TaskMapping& incumbent = chain.current.at(task.id);
    os << "\n" << task.name << " (task " << ti << "):\n";

    const char* dist = !tm.distribute  ? "leader-only"
                       : tm.blocked    ? "distributed blocked"
                                       : "distributed round-robin";
    os << "  distribution = " << dist << ": ";
    if (tm.distribute == incumbent.distribute &&
        tm.blocked == incumbent.blocked)
      os << describe_provenance(chain.dist_prov[ti], graph, c);
    else
      os << "set by the finalist protocol";
    os << "\n";

    os << "  processor = " << to_string(tm.proc) << ": ";
    if (tm.proc == incumbent.proc)
      os << describe_provenance(chain.proc_prov[ti], graph, c);
    else
      os << "set by the finalist protocol";
    os << "\n";

    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const MemKind mem = winner.primary_memory(task.id, a);
      os << "  arg " << a << " ("
         << graph.collection(task.args[a].collection).name
         << ") memory = " << to_string(mem) << ": ";
      if (mem == chain.current.primary_memory(task.id, a))
        os << describe_provenance(chain.mem_prov[graph.arg_offsets()[ti] + a],
                                  graph, c);
      else
        os << "set by the finalist protocol";
      os << "\n";
    }
  }
  return os.str();
}

ReplayOutcome replay_journal(const MachineModel& machine,
                             const TaskGraph& graph,
                             const std::string& journal_text) {
  const std::vector<JsonValue> events = parse_journal(journal_text);

  const JsonValue* sb = nullptr;
  const JsonValue* fin = nullptr;
  std::vector<std::pair<double, double>> recorded;  // (clock, best)
  long long candidates = 0;
  for (const JsonValue& ev : events) {
    const std::string type = ev.str_or("type", "");
    if (type == "search_begin") {
      require(sb == nullptr,
              "replay requires a single-search journal; this one holds "
              "several search_begin records");
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
  require(sb != nullptr, "journal has no search_begin record");
  require(fin != nullptr,
          "journal has no finalize record (interrupted search cannot "
          "be replayed)");
  require(!sb->bool_or("seeded_profiles", false),
          "journal records a search seeded from a profiles database; "
          "replay cannot reconstruct it");

  const std::string label = sb->str_or("algorithm", "?");
  const SearchAlgorithmInfo* info = nullptr;
  for (const SearchAlgorithmInfo& row : search_algorithms())
    if (row.label == label) info = &row;
  require(info != nullptr,
          "journal algorithm '" + label + "' is not in the registry");

  // Rebuild the recorded configuration: every deterministic input is in
  // the search_begin record.
  const JsonValue* opts = sb->find("options");
  const JsonValue* sim_obj = sb->find("sim");
  require(opts != nullptr && sim_obj != nullptr,
          "search_begin has no 'options'/'sim' record; replay needs a "
          "journal of version 2 or later");
  SearchOptions options = search_options_from_json(*opts);
  const SimOptions sim_options = sim_options_from_json(*sim_obj);
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
