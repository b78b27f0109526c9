#include "src/search/coordinate_descent.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "src/report/journal.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace detail {

OverlapMap build_overlap_map(const TaskGraph& graph,
                             const std::vector<OverlapEdge>& edges,
                             const std::vector<TaskId>& frozen) {
  // The active edges as a symmetric collection adjacency matrix (a == b
  // encodes the same-collection coupling across tasks).
  const std::size_t n = graph.num_collections();
  std::vector<std::uint8_t> adjacent(n * n, 0);
  for (const OverlapEdge& e : edges)
    adjacent[e.a.index() * n + e.b.index()] =
        adjacent[e.b.index() * n + e.a.index()] = 1;

  // Every argument that may co-move, in flat order.
  std::vector<std::pair<ArgRef, CollectionId>> movable;
  for (const GroupTask& task : graph.tasks()) {
    if (std::ranges::find(frozen, task.id) != frozen.end()) continue;
    for (std::size_t a = 0; a < task.args.size(); ++a)
      movable.push_back({{task.id, a}, task.args[a].collection});
  }

  OverlapMap map(graph.num_collection_args());
  for (const GroupTask& task : graph.tasks()) {
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const std::size_t row = task.args[a].collection.index() * n;
      for (const auto& [ref, c] : movable)
        if (adjacent[row + c.index()] != 0 && ref != ArgRef{task.id, a})
          map[graph.arg_offsets()[task.id.index()] + a].push_back(ref);
    }
  }
  return map;
}

namespace {

/// A work list of ids, popped lowest id first, as the paper's sets are
/// visited: a bitset that keeps its words across uses.
class IdSet {
 public:
  explicit IdSet(std::size_t size) : words_((size + 63) / 64, 0) {}

  void insert(std::size_t id) {
    words_[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  void erase(std::size_t id) {
    words_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
  }
  [[nodiscard]] bool empty() const {
    return std::ranges::all_of(words_, [](std::uint64_t w) { return w == 0; });
  }
  void clear() { std::ranges::fill(words_, 0); }
  /// Removes the lowest id into `id`; false when the set is empty.
  bool pop(std::size_t& id) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] == 0) continue;
      const int bit = std::countr_zero(words_[w]);
      words_[w] &= words_[w] - 1;
      id = w * 64 + static_cast<std::size_t>(bit);
      return true;
    }
    return false;
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Algorithm 2's fixed point for one graph and machine. Its work lists and
/// its argument-to-task table are built once and reused by every repair,
/// so a repair allocates nothing.
class Colocation {
 public:
  Colocation(const TaskGraph& graph, const MachineModel& machine)
      : graph_(graph),
        machine_(machine),
        arg_task_(graph.num_collection_args()),
        tasks_(graph.num_tasks()),
        args_(graph.num_collection_args()) {
    for (const GroupTask& task : graph.tasks())
      std::fill(arg_task_.begin() + graph.arg_offsets()[task.id.index()],
                arg_task_.begin() + graph.arg_offsets()[task.id.index() + 1],
                static_cast<std::uint32_t>(task.id.index()));
  }

  /// Re-establishes the co-location constraints of `overlap` in `fp`, whose
  /// (t, arg) was just mapped to (k, r), in place.
  void repair(Mapping& fp, TaskId t, std::size_t arg, ProcKind k, MemKind r,
              const OverlapMap& overlap);

 private:
  const TaskGraph& graph_;
  const MachineModel& machine_;
  std::vector<std::uint32_t> arg_task_;  // each flat argument's task
  IdSet tasks_;  // t_check: tasks to re-check
  IdSet args_;   // c_check: arguments to re-place
};

}  // namespace

void Colocation::repair(Mapping& fp, TaskId t, std::size_t arg, ProcKind k,
                        MemKind r, const OverlapMap& overlap) {
  const std::vector<std::uint32_t>& off = graph_.arg_offsets();
  // A repair cut short by the guard below may have left work behind.
  tasks_.clear();
  args_.clear();

  // Map every argument co-located with (t, arg) to r (Algorithm 2 ll. 4-6).
  tasks_.insert(t.index());
  for (const ArgRef& ref : overlap[off[t.index()] + arg]) {
    fp.set_primary_memory(ref.task, ref.arg, r);
    tasks_.insert(ref.task.index());
  }

  // Fixed point (ll. 7-26). The loop terminates because in the limit every
  // task lands on k and every collection on a k-addressable kind; the guard
  // below only protects against implementation bugs. Each round drains
  // args_, so only tasks_ can hold work after it.
  int guard = static_cast<int>(graph_.num_collection_args()) * 8 + 64;
  do {
    AM_CHECK(--guard > 0, "co-location fixed point failed to converge");

    for (std::size_t i; tasks_.pop(i);) {
      const TaskId ti(i);
      const std::size_t num_args = graph_.task(ti).args.size();
      // First pass: does any argument violate constraint 1 under the
      // task's current processor? If so, pull the task to k…
      bool violated = false;
      for (std::size_t ai = 0; ai < num_args; ++ai) {
        if (!machine_.addressable(fp.at(ti).proc, fp.primary_memory(ti, ai)))
          violated = true;
      }
      if (violated && ti != t) fp.at(ti).proc = k;
      // …then re-check every argument under the (possibly new) processor,
      // so a processor switch cannot orphan arguments scanned earlier.
      for (std::size_t ai = 0; ai < num_args; ++ai) {
        if (!machine_.addressable(fp.at(ti).proc, fp.primary_memory(ti, ai)))
          args_.insert(off[i] + ai);
      }
    }

    for (std::size_t id; args_.pop(id);) {
      const std::size_t ti = arg_task_[id];
      const ArgRef ref{TaskId(ti), id - off[ti]};

      // Arguments co-located with the primary decision must stay on r
      // (Algorithm 2 ll. 17-18). A propagation from a different co-location
      // class may have overwritten them meanwhile, so re-assert r — and
      // pull the task to k when its current processor cannot address r.
      const auto& related = overlap[id];
      const bool tied_to_primary =
          (ref.task == t && ref.arg == arg) ||
          std::find(related.begin(), related.end(), ArgRef{t, arg}) !=
              related.end();
      if (tied_to_primary) {
        fp.set_primary_memory(ref.task, ref.arg, r);
        if (!machine_.addressable(fp.at(ref.task).proc, r)) {
          if (ref.task != t) fp.at(ref.task).proc = k;
          tasks_.insert(ti);
        }
        continue;
      }

      const MemKind m = machine_.best_memory_for(fp.at(ref.task).proc);
      fp.set_primary_memory(ref.task, ref.arg, m);
      for (const ArgRef& other : related) {
        if (fp.primary_memory(other.task, other.arg) == m) continue;
        fp.set_primary_memory(other.task, other.arg, m);
        if (!machine_.addressable(fp.at(other.task).proc, m))
          tasks_.insert(other.task.index());
        args_.erase(off[other.task.index()] + other.arg);
      }
    }
  } while (!tasks_.empty());
}

Mapping colocation_constraints(Mapping f, TaskId t, std::size_t arg,
                               ProcKind k, MemKind r,
                               const OverlapMap& overlap,
                               const TaskGraph& graph,
                               const MachineModel& machine) {
  Colocation(graph, machine).repair(f, t, arg, k, r, overlap);
  return f;
}

std::vector<TaskId> tasks_by_runtime(const Simulator& sim, const Mapping& f,
                                     std::uint64_t seed) {
  const TaskGraph& graph = sim.graph();
  std::vector<double> runtime(graph.num_tasks(), 0.0);
  const ExecutionReport report = sim.run(f, seed);
  if (report.ok) {
    for (const TaskTimeBreakdown& t : task_times(graph, report))
      runtime[t.task.index()] = t.busy_seconds;
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
                                     const OverlapMap& overlap,
                                     const TaskGraph& graph) {
  const std::vector<ArgRef>& related =
      overlap[graph.arg_offsets()[t.index()] + arg];
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
      const bool direct =
          std::ranges::find(related, ArgRef{ti, ai}) != related.end();
      out.push_back(
          {.task = ti, .arg = ai, .mem = m, .direct = direct});
    }
  }
  return out;
}

namespace {

/// One decision of a coordinate sweep (Algorithm 1 ll. 11-18): a
/// distribution setting, or a processor kind with one argument's memory
/// kind. The provenance journal describes the move from it without
/// re-deriving it from a mapping diff.
struct Move {
  bool is_dist = false;  // distribution move vs placement move
  bool distribute = false;
  bool blocked = false;
  std::size_t arg = 0;
  ProcKind proc = ProcKind::kCpu;
  MemKind mem = MemKind::kSystem;
};

/// Observability instruments of one CCD/CD run (all null when disabled).
struct CcdInstruments {
  /// CCD rather than CD: names the journal's indirect forced moves.
  bool constrained = false;
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

/// Writes `moves` as the `forced` array of a `move` event.
void write_forced(JsonWriter& out, const std::vector<ForcedMove>& moves,
                  bool constrained) {
  out.begin_array("forced");
  for (const ForcedMove& m : moves) {
    out.begin_object().integer("task", m.task.index());
    if (m.proc_change) {
      out.str("proc", to_string(m.proc)).str("via", "addressability");
    } else {
      // direct: the argument co-locates with the primary (same or
      // overlapping collection). transitive: dragged by the fixed point
      // through other co-location classes. repair: plain CD's
      // addressability fallback (no co-location classes at all).
      out.integer("arg", m.arg).str("mem", to_string(m.mem));
      out.str("via", m.direct        ? "colocation"
                     : constrained ? "transitive"
                                   : "repair");
    }
    out.end_object();
  }
  out.end_array();
}

/// Emits one `move` journal event (and bumps the accepted/rejected
/// counters) for `candidate`, the result of `move` on task `t` of the
/// pre-move incumbent `base`. `overlap` is the active co-location map.
void emit_move(const CcdInstruments& ins, const Move& move, TaskId t,
               const OverlapMap& overlap, const TaskGraph& graph,
               const Mapping& base, const Mapping& candidate, bool accepted,
               double mean, double incumbent, double clock) {
  if (ins.moves_accepted != nullptr) {
    (accepted ? ins.moves_accepted : ins.moves_rejected)->inc();
  }
  if (ins.journal == nullptr) return;
  auto ev = ins.journal->event("move");
  ev.str("kind", move.is_dist ? "distribution" : "placement");
  if (move.is_dist) {
    ev.boolean("distribute", move.distribute)
        .boolean("blocked", move.blocked);
  } else {
    ev.integer("arg", static_cast<long long>(move.arg))
        .str("proc", to_string(move.proc))
        .str("mem", to_string(move.mem));
  }
  ev.boolean("accepted", accepted).num("mean", mean);
  if (std::isfinite(mean) && std::isfinite(incumbent)) {
    ev.num("delta", mean - incumbent);
  }
  ev.num("clock", clock);
  if (accepted) {
    ev.str("hash", hex_u64(candidate.hash()));
    if (!move.is_dist) {
      write_forced(ev,
                   forced_moves(base, candidate, t, move.arg, overlap, graph),
                   ins.constrained);
    }
  }
}

/// What a descent reuses from one proposal to the next, so that proposing
/// allocates nothing: the move list, the candidate each move is built in,
/// Algorithm 2's work lists, and the graph- and machine-only inputs of the
/// move list.
class Proposals {
 public:
  Proposals(const TaskGraph& graph, const MachineModel& machine)
      : graph_(graph),
        procs_(machine.proc_kinds()),
        args_by_size_(graph.num_collection_args()),
        colocation_(graph, machine) {
    for (const ProcKind k : procs_)
      addressable_[index_of(k)] = machine.memories_addressable_by(k);
    // Each task's argument indices, largest collection first (Algorithm 1
    // line 14).
    for (const GroupTask& task : graph.tasks()) {
      const auto order = std::span(args_by_size_).subspan(
          graph.arg_offsets()[task.id.index()], task.args.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return graph.collection_bytes(
                                    task.args[a].collection) >
                                graph.collection_bytes(
                                    task.args[b].collection);
                       });
    }
  }

  /// Every distribution, processor and memory move of task `t`, in the
  /// order optimize_task tests them.
  const std::vector<Move>& moves(TaskId t,
                                 bool search_distribution_strategies) {
    const GroupTask& task = graph_.task(t);
    // Distribution setting. The paper searches only distributed-vs-leader;
    // the extension also proposes a blocked decomposition.
    moves_.assign({{.is_dist = true, .distribute = true}});
    if (search_distribution_strategies)
      moves_.push_back({.is_dist = true, .distribute = true, .blocked = true});
    moves_.push_back({.is_dist = true});
    // Processor kind x per-collection memory kind.
    const auto order = std::span(args_by_size_).subspan(
        graph_.arg_offsets()[t.index()], task.args.size());
    for (const ProcKind k : procs_) {
      if (k == ProcKind::kGpu && !task.cost.has_gpu_variant()) continue;
      for (const std::size_t a : order)
        for (const MemKind r : addressable_[index_of(k)])
          moves_.push_back({.arg = a, .proc = k, .mem = r});
    }
    return moves_;
  }

  /// Builds, in the one reused candidate, the incumbent `f` with `move`
  /// applied to task `t`, and re-establishes the co-location constraints
  /// of `overlap` (Algorithm 2). Plain CD's map is empty, so there only
  /// the task's other arguments its new processor cannot address move, to
  /// that processor's best memory.
  Mapping& propose(const Mapping& f, TaskId t, const Move& move,
                   const OverlapMap& overlap) {
    candidate_ = f;  // reuses the candidate's storage
    if (move.is_dist) {
      candidate_.at(t).distribute = move.distribute;
      candidate_.at(t).blocked = move.blocked;
      return candidate_;
    }
    candidate_.at(t).proc = move.proc;
    candidate_.set_primary_memory(t, move.arg, move.mem);
    colocation_.repair(candidate_, t, move.arg, move.proc, move.mem, overlap);
    return candidate_;
  }

 private:
  const TaskGraph& graph_;
  std::vector<ProcKind> procs_;
  std::vector<MemKind> addressable_[kNumProcKinds];  // by processor kind
  std::vector<std::size_t> args_by_size_;  // by flat argument id
  std::vector<Move> moves_;
  Mapping candidate_;
  Colocation colocation_;
};

/// OptimizeTask (Algorithm 1 ll. 10-24): tests every distribution,
/// processor and memory move of task `t` one at a time, each built from
/// the current incumbent, and keeps a move iff its mean beats the
/// incumbent's (TestMapping).
///
/// The incumbent mean p is the interest bound: a candidate that cannot
/// beat p is rejected, so the evaluator may censor it (pruning its
/// simulation) without changing any acceptance decision. The censor
/// threshold, max(p, k-th finalist), is derived once per incumbent — when
/// the task's sweep starts and when a move is accepted — and not when a
/// rejected candidate enters the top-k list, which would change which
/// later candidates are censored and every counter after them.
void optimize_task(TaskId t, Mapping& f, double& p, Evaluator& eval,
                   const Simulator& sim, const OverlapMap& overlap,
                   bool search_distribution_strategies,
                   const CcdInstruments& ins, Proposals& proposals) {
  double threshold = eval.censor_threshold(p);
  for (const Move& move :
       proposals.moves(t, search_distribution_strategies)) {
    if (eval.budget_exhausted()) return;
    Mapping& candidate = proposals.propose(f, t, move, overlap);
    const double mean = eval.evaluate(candidate, threshold);
    const bool accepted = mean < p;
    // Journal the move before the incumbent is updated: `f` is still the
    // pre-move base the forced-move diff needs, and `p` the delta baseline.
    if (ins.active()) {
      emit_move(ins, move, t, overlap, sim.graph(), f, candidate, accepted,
                mean, p, eval.stats().search_time_s);
    }
    if (accepted) {
      std::swap(f, candidate);  // the next proposal overwrites the old f
      p = mean;
      threshold = eval.censor_threshold(p);
    }
  }
}

}  // namespace

void descend(Evaluator& eval, const Simulator& sim,
             const SearchOptions& options, bool constrained,
             const Mapping& start) {
  const TaskGraph& graph = sim.graph();

  CcdInstruments ins;
  ins.constrained = constrained;
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

  Mapping f = start;
  double p = eval.evaluate(f);

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
    Journal::Event event = ins.journal->event("constraint_graph");
    event.integer("edges", edges.size()).begin_array("edge_list");
    for (const OverlapEdge& e : edges) {
      event.begin_object().integer("a", e.a.index()).integer("b", e.b.index());
      event.integer("bytes", e.weight_bytes).end_object();
    }
    event.end_array();
  }

  const int rotations = constrained ? options.rotations : 1;
  const int first = static_cast<int>(eval.stats().rotations.size());
  Proposals proposals(graph, sim.machine());
  Rng profile_rng(mix64(options.seed) ^ 0x1b873593ULL);

  // Durably publishes the evaluator's checkpoint log at a task or rotation
  // boundary. save_checksummed gives write-temp + fsync + rename + dir
  // fsync (the previous checkpoint survives a mid-write death, even across
  // power loss) and appends the checksum trailer that lets a resuming
  // reader tell a torn checkpoint from a complete one. Any prefix of the
  // log resumes onto the uninterrupted run's trajectory; the write is
  // still skipped once the budget is exhausted (or the search cancelled),
  // so checkpoints land where a larger-budget run also writes them.
  const auto checkpoint = [&](int rotation, int position) {
    if (options.checkpoint_path.empty() || eval.budget_exhausted()) return;
    save_checksummed(options.checkpoint_path, eval.serialize_state(),
                     "checkpoint");
    if (ins.checkpoints != nullptr) ins.checkpoints->inc();
    if (ins.journal != nullptr) {
      ins.journal->event("checkpoint")
          .integer("at_rotation", rotation)
          .integer("at_position", position);
    }
    if (options.on_checkpoint) options.on_checkpoint(rotation, position);
  };

  for (int rotation = first; rotation < first + rotations; ++rotation) {
    if (eval.budget_exhausted()) break;
    const double best_before = eval.best_seconds();

    const detail::OverlapMap overlap =
        detail::build_overlap_map(graph, edges, options.frozen_tasks);
    const std::vector<TaskId> order =
        detail::tasks_by_runtime(sim, f, profile_rng.next());

    if (ins.journal != nullptr) {
      ins.journal->set_rotation(rotation);
      Journal::Event event = ins.journal->event("rotation_begin");
      event.integer("edges", edges.size()).num("incumbent", p);
      event.begin_array("order");
      for (const TaskId t : order) event.integer(t.index());
      event.end_array();
    }

    // Counters for the degraded-rotation circuit breaker below.
    const std::size_t evaluated_before = eval.stats().evaluated;
    const std::size_t failed_before =
        eval.stats().oom + eval.stats().quarantined;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const TaskId t = order[pos];
      if (eval.budget_exhausted()) break;
      if (std::ranges::find(options.frozen_tasks, t) !=
          options.frozen_tasks.end())
        continue;  // §3.3 subset search
      if (ins.journal != nullptr) {
        ins.journal->set_coordinate(static_cast<int>(pos),
                                    static_cast<int>(t.index()));
      }
      optimize_task(t, f, p, eval, sim, overlap,
                    options.search_distribution_strategies, ins, proposals);
      checkpoint(rotation, static_cast<int>(pos + 1));
    }
    if (ins.journal != nullptr) ins.journal->clear_coordinate();
    eval.note_rotation(rotation, best_before);
    if (ins.rotations != nullptr) ins.rotations->inc();

    // Relax the data-movement constraint: drop 1/(N-1) of the lightest
    // edges per rotation so the final rotation runs unconstrained.
    if (constrained && rotations > 1) {
      const std::size_t drop =
          (original_edges + static_cast<std::size_t>(rotations) - 2) /
          static_cast<std::size_t>(rotations - 1);
      const std::size_t keep = edges.size() > drop ? edges.size() - drop : 0;
      const std::size_t dropped = edges.size() - keep;
      edges.resize(keep);
      if (ins.edges_active != nullptr) {
        ins.edges_active->set(static_cast<double>(edges.size()));
      }
      if (ins.journal != nullptr && dropped > 0) {
        ins.journal->event("edges_pruned")
            .integer("dropped", static_cast<long long>(dropped))
            .integer("remaining", static_cast<long long>(edges.size()));
      }
    }
    checkpoint(rotation + 1, 0);

    // Graceful-degradation circuit breaker (fault injection only): when
    // every candidate executed this rotation failed (OOM or quarantined),
    // the fault rate has made rotations unprofilable — stop descending and
    // return the best-known incumbent flagged as degraded rather than
    // burning the remaining rotations on noise.
    if (sim.options().faults.enabled()) {
      const std::size_t d_eval =
          eval.stats().evaluated - evaluated_before;
      const std::size_t d_failed = eval.stats().oom +
                                   eval.stats().quarantined -
                                   failed_before;
      if (d_eval > 0 && d_failed == d_eval) {
        eval.mark_degraded();
        break;
      }
    }
  }
  if (ins.journal != nullptr) ins.journal->clear_cursor();
}

}  // namespace detail

SearchResult run_cd(const Simulator& sim, const SearchOptions& options) {
  Evaluator eval(sim, options);
  const Mapping start = search_starting_point(sim.graph(), sim.machine());
  eval.begin_search("AM-CD", start);
  detail::descend(eval, sim, options, /*constrained=*/false, start);
  return eval.finalize();
}

SearchResult run_ccd(const Simulator& sim, const SearchOptions& options) {
  Evaluator eval(sim, options);
  const Mapping start = search_starting_point(sim.graph(), sim.machine());
  eval.begin_search("AM-CCD", start);
  detail::descend(eval, sim, options, /*constrained=*/true, start);
  return eval.finalize();
}

}  // namespace automap
