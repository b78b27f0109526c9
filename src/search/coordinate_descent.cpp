#include "src/search/coordinate_descent.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "src/io/line_reader.hpp"
#include "src/io/text_io.hpp"
#include "src/report/journal.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace detail {

OverlapMap build_overlap_map(const TaskGraph& graph,
                             const std::vector<OverlapEdge>& edges,
                             const FrozenTaskSet* frozen) {
  // arg_refs[collection] -> all (task, arg) uses of that collection.
  std::vector<std::vector<ArgRef>> uses(graph.num_collections());
  for (const GroupTask& task : graph.tasks()) {
    if (frozen != nullptr && frozen->contains(task.id)) continue;
    for (std::size_t a = 0; a < task.args.size(); ++a)
      uses[task.args[a].collection.index()].push_back({task.id, a});
  }

  // Adjacency over collections from the active edges (a == b encodes the
  // same-collection coupling across tasks).
  std::vector<std::vector<CollectionId>> adj(graph.num_collections());
  for (const OverlapEdge& e : edges) {
    if (e.a == e.b) {
      adj[e.a.index()].push_back(e.a);
    } else {
      adj[e.a.index()].push_back(e.b);
      adj[e.b.index()].push_back(e.a);
    }
  }

  OverlapMap map(graph.num_tasks());
  for (const GroupTask& task : graph.tasks()) {
    map[task.id.index()].resize(task.args.size());
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const ArgRef self{task.id, a};
      const CollectionId c = task.args[a].collection;
      std::set<ArgRef> related;
      for (const CollectionId other : adj[c.index()]) {
        for (const ArgRef& ref : uses[other.index()]) {
          if (ref == self) continue;
          related.insert(ref);
        }
      }
      map[task.id.index()][a].assign(related.begin(), related.end());
    }
  }
  return map;
}

Mapping colocation_constraints(const Mapping& f, TaskId t, std::size_t arg,
                               ProcKind k, MemKind r,
                               const OverlapMap& overlap,
                               const TaskGraph& graph,
                               const MachineModel& machine) {
  Mapping fp = f;
  std::set<TaskId> t_check;
  std::set<ArgRef> c_check;

  // Map every argument co-located with (t, arg) to r (Algorithm 2 ll. 4-6).
  t_check.insert(t);
  for (const ArgRef& ref : overlap[t.index()][arg]) {
    fp.set_primary_memory(ref.task, ref.arg, r);
    t_check.insert(ref.task);
  }

  // Fixed point (ll. 7-26). The loop terminates because in the limit every
  // task lands on k and every collection on a k-addressable kind; the guard
  // below only protects against implementation bugs.
  int guard = static_cast<int>(graph.num_collection_args()) * 8 + 64;
  while (!t_check.empty() || !c_check.empty()) {
    AM_CHECK(--guard > 0, "co-location fixed point failed to converge");

    while (!t_check.empty()) {
      const TaskId ti = *t_check.begin();
      t_check.erase(t_check.begin());
      const GroupTask& task_i = graph.task(ti);
      // First pass: does any argument violate constraint 1 under the
      // task's current processor? If so, pull the task to k…
      bool violated = false;
      for (std::size_t ai = 0; ai < task_i.args.size(); ++ai) {
        if (!machine.addressable(fp.at(ti).proc, fp.primary_memory(ti, ai)))
          violated = true;
      }
      if (violated && ti != t) fp.at(ti).proc = k;
      // …then re-check every argument under the (possibly new) processor,
      // so a processor switch cannot orphan arguments scanned earlier.
      for (std::size_t ai = 0; ai < task_i.args.size(); ++ai) {
        if (!machine.addressable(fp.at(ti).proc, fp.primary_memory(ti, ai)))
          c_check.insert({ti, ai});
      }
    }

    while (!c_check.empty()) {
      const ArgRef ref = *c_check.begin();
      c_check.erase(c_check.begin());

      // Arguments co-located with the primary decision must stay on r
      // (Algorithm 2 ll. 17-18). A propagation from a different co-location
      // class may have overwritten them meanwhile, so re-assert r — and
      // pull the task to k when its current processor cannot address r.
      const auto& related = overlap[ref.task.index()][ref.arg];
      const bool tied_to_primary =
          (ref.task == t && ref.arg == arg) ||
          std::find(related.begin(), related.end(), ArgRef{t, arg}) !=
              related.end();
      if (tied_to_primary) {
        fp.set_primary_memory(ref.task, ref.arg, r);
        if (!machine.addressable(fp.at(ref.task).proc, r)) {
          if (ref.task != t) fp.at(ref.task).proc = k;
          t_check.insert(ref.task);
        }
        continue;
      }

      const MemKind m = machine.best_memory_for(fp.at(ref.task).proc);
      fp.set_primary_memory(ref.task, ref.arg, m);
      for (const ArgRef& other : related) {
        if (fp.primary_memory(other.task, other.arg) == m) continue;
        fp.set_primary_memory(other.task, other.arg, m);
        if (!machine.addressable(fp.at(other.task).proc, m))
          t_check.insert(other.task);
        c_check.erase(other);
      }
    }
  }
  return fp;
}

std::vector<TaskId> tasks_by_runtime(const Simulator& sim, const Mapping& f,
                                     std::uint64_t seed) {
  const TaskGraph& graph = sim.graph();
  std::vector<double> runtime(graph.num_tasks(), 0.0);
  const ExecutionReport report = sim.run(f, seed);
  if (report.ok) {
    for (const TaskReport& tr : report.tasks)
      runtime[tr.task.index()] = tr.compute_seconds;
  } else {
    // Fall back to the static CPU cost estimate when profiling fails.
    for (const GroupTask& task : graph.tasks())
      runtime[task.id.index()] =
          task.cost.cpu_seconds_per_point * task.num_points;
  }
  std::vector<TaskId> order;
  order.reserve(graph.num_tasks());
  for (const GroupTask& task : graph.tasks()) order.push_back(task.id);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return runtime[a.index()] > runtime[b.index()];
  });
  return order;
}

std::vector<ForcedMove> forced_moves(const Mapping& base,
                                     const Mapping& candidate, TaskId t,
                                     std::size_t arg,
                                     const OverlapMap* overlap,
                                     const TaskGraph& graph) {
  std::vector<ForcedMove> out;
  for (const GroupTask& task : graph.tasks()) {
    const TaskId ti = task.id;
    // The primary move sets t's processor itself; every *other* task whose
    // processor changed was pulled by the fixed point's addressability
    // repair.
    if (ti != t && candidate.at(ti).proc != base.at(ti).proc) {
      out.push_back({.task = ti,
                     .proc_change = true,
                     .proc = candidate.at(ti).proc});
    }
    for (std::size_t ai = 0; ai < task.args.size(); ++ai) {
      if (ti == t && ai == arg) continue;  // the primary decision itself
      const MemKind m = candidate.primary_memory(ti, ai);
      if (m == base.primary_memory(ti, ai)) continue;
      bool direct = false;
      if (overlap != nullptr) {
        const auto& related = (*overlap)[t.index()][arg];
        direct = std::find(related.begin(), related.end(),
                           ArgRef{ti, ai}) != related.end();
      }
      out.push_back(
          {.task = ti, .arg = ai, .mem = m, .direct = direct});
    }
  }
  return out;
}

namespace {

/// Collection-argument indices of a task, largest collection first
/// (Algorithm 1 line 14).
std::vector<std::size_t> args_by_size(const TaskGraph& graph,
                                      const GroupTask& task) {
  std::vector<std::size_t> order(task.args.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return graph.collection_bytes(task.args[a].collection) >
                            graph.collection_bytes(task.args[b].collection);
                   });
  return order;
}

/// Builds one candidate of a sweep from the current incumbent.
using CandidateGen = std::function<Mapping(const Mapping&)>;

/// What decision a sweep generator proposes — recorded alongside each
/// generator so the provenance journal can describe the move without
/// re-deriving it from a mapping diff.
struct MoveInfo {
  bool is_dist = false;  // distribution move vs placement move
  bool distribute = false;
  bool blocked = false;
  std::size_t arg = 0;
  ProcKind proc = ProcKind::kCpu;
  MemKind mem = MemKind::kSystem;
};

/// Observability instruments of one CCD/CD run (all null when disabled).
struct CcdInstruments {
  Journal* journal = nullptr;
  Counter* moves_accepted = nullptr;
  Counter* moves_rejected = nullptr;
  Counter* rotations = nullptr;
  Counter* checkpoints = nullptr;
  Gauge* edges_active = nullptr;

  [[nodiscard]] bool active() const {
    return journal != nullptr || moves_accepted != nullptr;
  }
};

/// Context a sweep needs to journal its moves: which coordinate is being
/// optimized and under which (possibly null) co-location map.
struct MoveContext {
  const CcdInstruments* ins = nullptr;
  const Evaluator* eval = nullptr;
  const std::vector<MoveInfo>* infos = nullptr;
  TaskId t;
  const OverlapMap* overlap = nullptr;  // null under plain CD
  const TaskGraph* graph = nullptr;
};

std::string render_forced(const std::vector<ForcedMove>& moves,
                          bool constrained) {
  std::string out = "[";
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const ForcedMove& m = moves[i];
    if (i > 0) out += ",";
    out += "{\"task\":" + std::to_string(m.task.index());
    if (m.proc_change) {
      out += ",\"proc\":\"" + std::string(to_string(m.proc)) + "\"";
      out += ",\"via\":\"addressability\"";
    } else {
      out += ",\"arg\":" + std::to_string(m.arg);
      out += ",\"mem\":\"" + std::string(to_string(m.mem)) + "\"";
      // direct: the argument co-locates with the primary (same or
      // overlapping collection). transitive: dragged by the fixed point
      // through other co-location classes. repair: plain CD's
      // addressability fallback (no constraint graph at all).
      out += m.direct ? ",\"via\":\"colocation\""
                      : (constrained ? ",\"via\":\"transitive\""
                                     : ",\"via\":\"repair\"");
    }
    out += "}";
  }
  out += "]";
  return out;
}

/// Emits one `move` journal event (and bumps the accepted/rejected
/// counters) for the sweep candidate at generator index `g`. Runs inside
/// the serial fold, so ordering and byte-identity are free.
void emit_move(const MoveContext& mc, std::size_t g, const Mapping& base,
               const Mapping& candidate, bool accepted, double mean,
               double incumbent) {
  const CcdInstruments& ins = *mc.ins;
  if (ins.moves_accepted != nullptr) {
    (accepted ? ins.moves_accepted : ins.moves_rejected)->inc();
  }
  if (ins.journal == nullptr) return;
  const MoveInfo& info = (*mc.infos)[g];
  auto ev = ins.journal->event("move");
  ev.str("kind", info.is_dist ? "distribution" : "placement");
  if (info.is_dist) {
    ev.boolean("distribute", info.distribute)
        .boolean("blocked", info.blocked);
  } else {
    ev.integer("arg", static_cast<long long>(info.arg))
        .str("proc", to_string(info.proc))
        .str("mem", to_string(info.mem));
  }
  ev.boolean("accepted", accepted).num("mean", mean);
  if (std::isfinite(mean) && std::isfinite(incumbent)) {
    ev.num("delta", mean - incumbent);
  }
  ev.num("clock", mc.eval->view().stats().search_time_s);
  if (accepted) {
    ev.str("hash", hex_u64(candidate.hash()));
    if (!info.is_dist) {
      ev.raw("forced",
             render_forced(forced_moves(base, candidate, mc.t, info.arg,
                                        mc.overlap, *mc.graph),
                           /*constrained=*/mc.overlap != nullptr));
    }
  }
}

/// One greedy-sequential coordinate sweep (Algorithm 1 ll. 10-24), batched.
/// Semantically identical to the serial loop
///
///   for gen in gens:
///     if budget_exhausted: return
///     candidate = gen(f); pt = evaluate(candidate)
///     if pt < p: f = candidate; p = pt        // TestMapping
///
/// including bit-identical statistics: the whole not-yet-tested tail is
/// built from the current incumbent and submitted as one batch (whose
/// candidate x repeats runs the Evaluator fans across its pool), and the
/// moment a candidate improves the incumbent, folding stops — the tail was
/// speculative, built from a now-stale incumbent, so it is discarded
/// without touching any statistics and rebuilt from the new one.
/// Improvements are rare in a descent sweep, so most batches fold whole.
void batched_sweep(Evaluator& eval, const std::vector<CandidateGen>& gens,
                   Mapping& f, double& p,
                   const MoveContext* mc = nullptr) {
  std::size_t next = 0;
  while (next < gens.size()) {
    if (eval.budget_exhausted()) return;
    std::vector<Mapping> batch;
    batch.reserve(gens.size() - next);
    for (std::size_t i = next; i < gens.size(); ++i)
      batch.push_back(gens[i](f));

    std::ptrdiff_t improved = -1;
    double improved_mean = 0.0;
    // The incumbent mean is the interest bound: a candidate that cannot
    // beat p will be rejected below, so the evaluator may censor it at p
    // (pruning its simulation) without changing any acceptance decision.
    const std::size_t folded = eval.evaluate_batch(
        batch,
        [&](std::size_t i, double mean) {
          const bool accepted = mean < p;
          // Journal the move on the fold side, before the incumbent is
          // updated: `f` is still the pre-move base the forced-move diff
          // needs, and `p` the delta baseline. Discarded speculative tails
          // never reach this point, matching the serial semantics.
          if (mc != nullptr) {
            emit_move(*mc, next + i, f, batch[i], accepted, mean, p);
          }
          if (accepted) {
            improved = static_cast<std::ptrdiff_t>(i);
            improved_mean = mean;
            return false;
          }
          return true;
        },
        /*interest_bound_s=*/p);

    if (improved >= 0) {
      f = std::move(batch[static_cast<std::size_t>(improved)]);
      p = improved_mean;
      next += static_cast<std::size_t>(improved) + 1;
      continue;
    }
    if (folded < batch.size()) return;  // budget ran out mid-batch
    next = gens.size();
  }
}

/// OptimizeTask (Algorithm 1 ll. 10-19): the per-coordinate candidate
/// sweep over distribution, processor and memory kinds, expressed as a
/// generator list so batched_sweep can evaluate it in parallel.
void optimize_task(TaskId t, Mapping& f, double& p, Evaluator& eval,
                   const Simulator& sim, const OverlapMap* overlap,
                   bool search_distribution_strategies,
                   const CcdInstruments* ins = nullptr) {
  const TaskGraph& graph = sim.graph();
  const MachineModel& machine = sim.machine();
  const GroupTask& task = graph.task(t);

  std::vector<CandidateGen> gens;
  std::vector<MoveInfo> infos;  // parallel to gens, journal only

  // Distribution setting. The paper searches only distributed-vs-leader;
  // the extension also proposes a blocked decomposition.
  struct DistOption {
    bool distribute;
    bool blocked;
  };
  std::vector<DistOption> dist_options = {{true, false}, {false, false}};
  if (search_distribution_strategies)
    dist_options.insert(dist_options.begin() + 1, {true, true});
  for (const DistOption d : dist_options) {
    gens.push_back([t, d](const Mapping& base) {
      Mapping candidate = base;
      candidate.at(t).distribute = d.distribute;
      candidate.at(t).blocked = d.blocked;
      return candidate;
    });
    infos.push_back({.is_dist = true,
                     .distribute = d.distribute,
                     .blocked = d.blocked});
  }

  // Processor kind x per-collection memory kind.
  for (const ProcKind k : machine.proc_kinds()) {
    if (k == ProcKind::kGpu && !task.cost.has_gpu_variant()) continue;
    for (const std::size_t a : args_by_size(graph, task)) {
      for (const MemKind r : machine.memories_addressable_by(k)) {
        gens.push_back([t, k, a, r, overlap, &task, &graph,
                        &machine](const Mapping& base) {
          Mapping candidate = base;
          candidate.at(t).proc = k;
          candidate.set_primary_memory(t, a, r);
          if (overlap != nullptr) {
            candidate = detail::colocation_constraints(
                candidate, t, a, k, r, *overlap, graph, machine);
          } else {
            // Plain CD: repair the task's other arguments so the processor
            // switch yields an executable mapping (the runtime's fallback).
            for (std::size_t other = 0; other < task.args.size(); ++other) {
              if (other == a) continue;
              if (!machine.addressable(k,
                                       candidate.primary_memory(t, other)))
                candidate.set_primary_memory(t, other,
                                             machine.best_memory_for(k));
            }
          }
          return candidate;
        });
        infos.push_back({.arg = a, .proc = k, .mem = r});
      }
    }
  }

  if (ins != nullptr && ins->active()) {
    const MoveContext mc{.ins = ins,
                         .eval = &eval,
                         .infos = &infos,
                         .t = t,
                         .overlap = overlap,
                         .graph = &graph};
    batched_sweep(eval, gens, f, p, &mc);
  } else {
    batched_sweep(eval, gens, f, p);
  }
}

/// A parsed CCD/CD checkpoint: where the killed search stood. Checkpoints
/// are always *pre-finalize* states that an uninterrupted run passes
/// through, so resuming replays the remaining rotations and the finalist
/// protocol deterministically — the resumed SearchResult is bit-identical
/// to the uninterrupted one (wall_time_s excepted).
struct ResumePoint {
  int rotation = 0;
  std::size_t position = 0;  // index into `order`; 0 = rotation start
  double best_before = std::numeric_limits<double>::infinity();
  double incumbent_mean = std::numeric_limits<double>::infinity();
  std::vector<TaskId> order;  // the rotation's coordinate order, mid-rotation
};

/// Durably publishes a checkpoint: rotation/position cursor, the
/// rotation's coordinate order (mid-rotation), the incumbent mapping, and
/// the evaluator's full state. save_checksummed gives write-temp + fsync
/// + rename + dir fsync (the previous checkpoint survives a mid-write
/// death, even across power loss) and appends the checksum trailer that
/// lets a resuming reader tell a torn checkpoint from a complete one.
void write_checkpoint(const std::string& path, const char* algorithm,
                      int rotation, std::size_t position, double best_before,
                      double incumbent_mean,
                      const std::vector<TaskId>& order, const Mapping& f,
                      const Evaluator& eval) {
  std::ostringstream os;
  os.precision(17);
  os << "automap-checkpoint 1\n";
  os << "algorithm " << algorithm << "\n";
  os << "rotation " << rotation << "\n";
  os << "position " << position << "\n";
  os << "best_before " << best_before << "\n";
  os << "incumbent_mean " << incumbent_mean << "\n";
  os << "order " << (position > 0 ? order.size() : 0);
  if (position > 0)
    for (const TaskId t : order) os << " " << t.index();
  os << "\n";
  os << f.serialize();
  os << eval.serialize_state();
  save_checksummed(path, os.str(), "checkpoint");
}

/// Parses a checkpoint produced by write_checkpoint: the mapping goes into
/// `f` and the evaluator-state tail into `eval`.
ResumePoint parse_checkpoint(const std::string& text, const char* algorithm,
                             const TaskGraph& graph, Mapping& f,
                             Evaluator& eval) {
  std::istringstream is(text);
  LineReader reader(is);
  reader.expect(reader.tagged("automap-checkpoint", 1)[1] == "1",
                "unsupported checkpoint version");
  const std::string label = reader.tagged("algorithm", 1)[1];
  if (label != algorithm)
    reader.fail("checkpoint was written by " + label +
                ", cannot resume as " + algorithm);
  const auto tasks = static_cast<long long>(graph.num_tasks());
  ResumePoint rp;
  rp.rotation = static_cast<int>(
      reader.to_int(reader.tagged("rotation", 1)[1], 0, INT_MAX));
  rp.position = static_cast<std::size_t>(
      reader.to_int(reader.tagged("position", 1)[1], 0, tasks));
  rp.best_before = reader.to_double(reader.tagged("best_before", 1)[1]);
  rp.incumbent_mean = reader.to_double(reader.tagged("incumbent_mean", 1)[1]);
  std::vector<std::string> t;
  reader.expect(reader.next(t) && t[0] == "order" && t.size() >= 2,
                "expected: order <count> <task id>...");
  reader.expect(t.size() == 2 + static_cast<std::size_t>(
                                    reader.to_int(t[1], 0, tasks)),
                "order count does not match its task ids");
  for (std::size_t i = 2; i < t.size(); ++i)
    rp.order.push_back(
        TaskId(static_cast<std::size_t>(reader.to_int(t[i], 0, tasks - 1))));
  f = Mapping::read(reader, graph);
  eval.restore_state(reader);
  return rp;
}

SearchResult run_coordinate_descent(const Simulator& sim,
                                    const SearchOptions& options,
                                    bool constrained,
                                    const Mapping* start = nullptr) {
  Evaluator eval(sim, options);
  const TaskGraph& graph = sim.graph();
  const MachineModel& machine = sim.machine();
  const char* algorithm = constrained ? "AM-CCD" : "AM-CD";

  CcdInstruments ins;
  ins.journal = options.journal;
  if (options.metrics != nullptr) {
    MetricsRegistry& m = *options.metrics;
    ins.moves_accepted = m.counter("automap_moves_accepted_total",
                                   "Coordinate moves accepted");
    ins.moves_rejected = m.counter("automap_moves_rejected_total",
                                   "Coordinate moves rejected");
    ins.rotations =
        m.counter("automap_rotations_total", "CCD/CD rotations completed");
    ins.checkpoints =
        m.counter("automap_checkpoints_total", "Checkpoint files written");
    ins.edges_active = m.gauge("automap_constraint_edges_active",
                               "Active co-location constraint edges");
  }

  Mapping f = start != nullptr ? *start
                               : search_starting_point(graph, machine);

  // Resume: restore the evaluator and the rotation cursor from a
  // checkpoint instead of starting fresh. The initial incumbent evaluation
  // is already inside the restored state, so it is skipped.
  const bool resuming = !options.resume_state.empty();
  ResumePoint rp;
  if (resuming) {
    rp = parse_checkpoint(options.resume_state, algorithm, graph, f, eval);
  }
  eval.journal_search_begin(algorithm, f, /*custom_start=*/start != nullptr);
  double p = resuming ? rp.incumbent_mean : eval.evaluate(f);

  // The overlap graph C, including same-collection coupling edges (a == b)
  // for collections used by more than one task.
  std::vector<OverlapEdge> edges;
  if (constrained) {
    edges = graph.build_overlap_graph();
    std::vector<int> users(graph.num_collections(), 0);
    for (const GroupTask& task : graph.tasks())
      for (const CollectionUse& use : task.args)
        ++users[use.collection.index()];
    for (const Collection& c : graph.collections())
      if (users[c.id.index()] > 1)
        edges.push_back({c.id, c.id, graph.collection_bytes(c.id)});
    // Prune lightest-first: sort descending and trim the tail.
    std::stable_sort(edges.begin(), edges.end(),
                     [](const OverlapEdge& a, const OverlapEdge& b) {
                       return a.weight_bytes > b.weight_bytes;
                     });
  }
  const std::size_t original_edges = edges.size();
  if (ins.edges_active != nullptr) {
    ins.edges_active->set(static_cast<double>(edges.size()));
  }
  if (ins.journal != nullptr && constrained) {
    std::string rendered = "[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (i > 0) rendered += ",";
      rendered += "{\"a\":" + std::to_string(edges[i].a.index()) +
                  ",\"b\":" + std::to_string(edges[i].b.index()) +
                  ",\"bytes\":" +
                  std::to_string(static_cast<long long>(
                      edges[i].weight_bytes)) +
                  "}";
    }
    rendered += "]";
    ins.journal->event("constraint_graph")
        .integer("edges", static_cast<long long>(edges.size()))
        .raw("edge_list", rendered);
  }

  const FrozenTaskSet frozen(options.frozen_tasks, graph.num_tasks());

  const int rotations = constrained ? options.rotations : 1;
  Rng profile_rng(mix64(options.seed) ^ 0x1b873593ULL);

  // Relax the data-movement constraint: drop 1/(N-1) of the lightest
  // edges per rotation so the final rotation runs unconstrained. Resume
  // replay passes quiet=true: the dropped journal events were already
  // written by the run that produced the checkpoint.
  const auto drop_edges = [&](bool quiet) {
    if (!constrained || rotations <= 1) return;
    const std::size_t drop =
        (original_edges + static_cast<std::size_t>(rotations) - 2) /
        static_cast<std::size_t>(rotations - 1);
    const std::size_t keep = edges.size() > drop ? edges.size() - drop : 0;
    const std::size_t dropped = edges.size() - keep;
    edges.resize(keep);
    if (quiet) return;
    if (ins.edges_active != nullptr) {
      ins.edges_active->set(static_cast<double>(edges.size()));
    }
    if (ins.journal != nullptr && dropped > 0) {
      ins.journal->event("edges_pruned")
          .integer("dropped", static_cast<long long>(dropped))
          .integer("remaining", static_cast<long long>(edges.size()));
    }
  };

  // Resume replay: each completed rotation consumed one profiling-seed
  // draw and one edge-drop step; a mid-rotation checkpoint additionally
  // burned the draw of the rotation in flight (its coordinate order is
  // restored from the checkpoint instead of recomputed). Discarding the
  // same draws keeps every later rotation's order identical to the
  // uninterrupted run's.
  const int start_rotation = resuming ? rp.rotation : 0;
  if (resuming) {
    const int draws = start_rotation + (rp.position > 0 ? 1 : 0);
    for (int i = 0; i < draws; ++i) (void)profile_rng.next();
    for (int i = 0; i < start_rotation; ++i) drop_edges(/*quiet=*/true);
  }

  for (int rotation = start_rotation; rotation < rotations; ++rotation) {
    if (eval.budget_exhausted()) break;
    const bool mid_resume =
        resuming && rotation == start_rotation && rp.position > 0;
    const double best_before =
        mid_resume ? rp.best_before : eval.view().best_seconds();

    const detail::OverlapMap overlap =
        detail::build_overlap_map(graph, edges, &frozen);
    const std::vector<TaskId> order =
        mid_resume ? rp.order
                   : detail::tasks_by_runtime(sim, f, profile_rng.next());

    if (ins.journal != nullptr) {
      ins.journal->set_rotation(rotation);
      std::string order_json = "[";
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) order_json += ",";
        order_json += std::to_string(order[i].index());
      }
      order_json += "]";
      ins.journal->event("rotation_begin")
          .integer("edges", static_cast<long long>(edges.size()))
          .num("incumbent", p)
          .raw("order", order_json);
    }

    // Counters for the degraded-rotation circuit breaker below.
    const std::size_t evaluated_before = eval.view().stats().evaluated;
    const std::size_t failed_before =
        eval.view().stats().oom + eval.view().stats().quarantined;

    for (std::size_t pos = mid_resume ? rp.position : 0; pos < order.size();
         ++pos) {
      const TaskId t = order[pos];
      if (eval.budget_exhausted()) break;
      if (frozen.contains(t)) continue;  // §3.3 subset search
      if (ins.journal != nullptr) {
        ins.journal->set_coordinate(static_cast<int>(pos),
                                    static_cast<int>(t.index()));
      }
      optimize_task(t, f, p, eval, sim, constrained ? &overlap : nullptr,
                    options.search_distribution_strategies, &ins);
      // Task-boundary checkpoint: every state written here is one the
      // uninterrupted run passes through, so a kill at any moment resumes
      // onto the same trajectory. A budget-cut optimize_task folds only a
      // prefix of its batch — a state no uninterrupted run visits — so the
      // write is skipped once the budget is exhausted.
      if (!options.checkpoint_path.empty() && !eval.budget_exhausted()) {
        write_checkpoint(options.checkpoint_path, algorithm, rotation,
                         pos + 1, best_before, p, order, f, eval);
        if (ins.checkpoints != nullptr) ins.checkpoints->inc();
        if (ins.journal != nullptr) {
          ins.journal->event("checkpoint")
              .integer("at_rotation", rotation)
              .integer("at_position", static_cast<long long>(pos + 1));
        }
        if (options.on_checkpoint)
          options.on_checkpoint(rotation, static_cast<int>(pos + 1));
      }
    }
    if (ins.journal != nullptr) ins.journal->clear_coordinate();
    eval.note_rotation(rotation, best_before);
    if (ins.rotations != nullptr) ins.rotations->inc();

    drop_edges(/*quiet=*/false);

    // Skip the rotation-boundary checkpoint when the budget cut the
    // rotation short: the boundary state would record note_rotation over an
    // incomplete rotation, which an uninterrupted (larger-budget) run never
    // passes through. The last task-boundary checkpoint stays on disk and
    // resumes onto the true trajectory instead.
    if (!options.checkpoint_path.empty() && !eval.budget_exhausted()) {
      write_checkpoint(options.checkpoint_path, algorithm, rotation + 1, 0,
                       best_before, p, order, f, eval);
      if (ins.checkpoints != nullptr) ins.checkpoints->inc();
      if (ins.journal != nullptr) {
        ins.journal->event("checkpoint")
            .integer("at_rotation", rotation + 1)
            .integer("at_position", 0);
      }
      if (options.on_checkpoint) options.on_checkpoint(rotation + 1, 0);
    }

    // Graceful-degradation circuit breaker (fault injection only): when
    // every candidate executed this rotation failed (OOM or quarantined),
    // the fault rate has made rotations unprofilable — stop descending and
    // return the best-known incumbent flagged as degraded rather than
    // burning the remaining rotations on noise.
    if (sim.options().faults.enabled()) {
      const std::size_t d_eval =
          eval.view().stats().evaluated - evaluated_before;
      const std::size_t d_failed = eval.view().stats().oom +
                                   eval.view().stats().quarantined -
                                   failed_before;
      if (d_eval > 0 && d_failed == d_eval) {
        eval.mark_degraded();
        break;
      }
    }
  }

  return eval.finalize(algorithm);
}

}  // namespace
}  // namespace detail

SearchResult run_cd(const Simulator& sim, const SearchOptions& options) {
  return detail::run_coordinate_descent(sim, options, /*constrained=*/false);
}

SearchResult run_ccd(const Simulator& sim, const SearchOptions& options) {
  return detail::run_coordinate_descent(sim, options, /*constrained=*/true);
}

SearchResult run_ccd_from(const Simulator& sim, const SearchOptions& options,
                          const Mapping& start) {
  return detail::run_coordinate_descent(sim, options, /*constrained=*/true,
                                        &start);
}

}  // namespace automap
