#include "src/search/extra_algorithms.hpp"

#include <algorithm>
#include <cmath>

#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"

namespace automap {

namespace {

/// Uniform valid mapping: processor among the task's variants, memory among
/// the kinds addressable from that processor.
Mapping random_valid_mapping(const TaskGraph& graph,
                             const MachineModel& machine, Rng& rng) {
  Mapping mapping(graph);
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = mapping.at(task.id);
    tm.distribute = rng.bernoulli(0.5);
    tm.proc = (task.cost.has_gpu_variant() &&
               machine.has_proc_kind(ProcKind::kGpu) && rng.bernoulli(0.5))
                  ? ProcKind::kGpu
                  : ProcKind::kCpu;
    const auto mems = machine.memories_addressable_by(tm.proc);
    for (MemPriority& priority : mapping.memories(task.id))
      priority = {mems[rng.uniform_index(mems.size())]};
  }
  return mapping;
}

/// Mutates `count` dimensions, keeping the mapping valid (memory choices
/// follow the processor's addressability; a processor flip re-homes
/// now-unaddressable arguments).
void mutate_valid(Mapping& mapping, const TaskGraph& graph,
                  const MachineModel& machine, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const TaskId t(rng.uniform_index(graph.num_tasks()));
    const GroupTask& task = graph.task(t);
    TaskMapping& tm = mapping.at(t);
    const auto memories = mapping.memories(t);
    const std::size_t dims = 2 + memories.size();
    const std::size_t dim = rng.uniform_index(dims);
    if (dim == 0) {
      tm.distribute = !tm.distribute;
      if (!tm.distribute) tm.blocked = false;
    } else if (dim == 1) {
      const ProcKind other =
          tm.proc == ProcKind::kCpu ? ProcKind::kGpu : ProcKind::kCpu;
      if (other == ProcKind::kGpu &&
          (!task.cost.has_gpu_variant() ||
           !machine.has_proc_kind(ProcKind::kGpu)))
        continue;
      tm.proc = other;
      for (MemPriority& priority : memories) {
        if (!priority.empty() &&
            !machine.addressable(tm.proc, priority.front()))
          priority = {machine.best_memory_for(tm.proc)};
      }
    } else {
      const auto mems = machine.memories_addressable_by(tm.proc);
      memories[dim - 2] = {mems[rng.uniform_index(mems.size())]};
    }
  }
}

/// Random search and annealing have no natural end; without a budget they
/// stop after as many proposals as a five-rotation CCD would make.
std::size_t proposal_cap(const SearchOptions& options) {
  return std::isfinite(options.time_budget_s) ? std::size_t{1} << 20 : 2500;
}

}  // namespace

SearchResult run_random_search(const Simulator& sim,
                               const SearchOptions& options) {
  Evaluator eval(sim, options);
  Rng rng(mix64(options.seed) ^ 0x2545f4914f6cdd1dULL);
  const Mapping start = search_starting_point(sim.graph(), sim.machine());
  eval.begin_search("AM-Random", start);
  (void)eval.evaluate(start);
  // Random search never compares candidates against each other — only the
  // finalist list matters — so the interest bound is zero and the evaluator
  // censors at the k-th finalist mean. The threshold is refreshed every
  // kBlock proposals, not after every fold, so kBlock is part of the
  // search's definition: changing it changes which candidates are censored.
  constexpr std::size_t kBlock = 64;
  double threshold = 0.0;
  const std::size_t cap = proposal_cap(options);
  for (std::size_t i = 0; i < cap && !eval.budget_exhausted(); ++i) {
    if (i % kBlock == 0) threshold = eval.censor_threshold(0.0);
    Mapping candidate = random_valid_mapping(sim.graph(), sim.machine(), rng);
    for (const TaskId t : options.frozen_tasks) candidate.copy_task(t, start);
    (void)eval.evaluate(candidate, threshold);
  }
  return eval.finalize();
}

SearchResult run_simulated_annealing(const Simulator& sim,
                                     const SearchOptions& options) {
  constexpr double kInitialTemperature = 0.2;  // x the starting cost
  constexpr double kCooling = 0.995;           // per proposal
  constexpr int kMutations = 2;                // per proposal
  Evaluator eval(sim, options);
  Rng rng(mix64(options.seed) ^ 0x94d049bb133111ebULL);

  Mapping current = search_starting_point(sim.graph(), sim.machine());
  eval.begin_search("AM-Anneal", current);
  double current_cost = eval.evaluate(current);
  // A start that completed no run leaves no temperature scale to anneal
  // with; finalize reports the failure unless a seeded database holds
  // finalists.
  if (!std::isfinite(current_cost)) return eval.finalize();

  double temperature = kInitialTemperature * current_cost;
  const std::size_t cap = proposal_cap(options);
  for (std::size_t i = 0; i < cap && !eval.budget_exhausted(); ++i) {
    Mapping candidate = current;
    mutate_valid(candidate, sim.graph(), sim.machine(), rng, kMutations);
    for (const TaskId t : options.frozen_tasks)
      candidate.copy_task(t, current);
    const double cost = eval.evaluate(candidate);
    const bool accept =
        cost < current_cost ||
        (std::isfinite(cost) &&
         rng.uniform() < std::exp((current_cost - cost) / temperature));
    if (accept) {
      current = std::move(candidate);
      current_cost = cost;
    }
    temperature *= kCooling;
  }
  return eval.finalize();
}

SearchResult run_heft_static(const Simulator& sim,
                             const SearchOptions& options) {
  Evaluator eval(sim, options);
  const TaskGraph& graph = sim.graph();
  const MachineModel& machine = sim.machine();

  Mapping mapping = search_starting_point(graph, machine);
  for (const GroupTask& task : graph.tasks()) {
    if (std::ranges::find(options.frozen_tasks, task.id) !=
        options.frozen_tasks.end())
      continue;
    TaskMapping& tm = mapping.at(task.id);
    tm.distribute = true;

    // Static per-kind estimate: wave-compute plus memory traffic from the
    // kind's single (best) memory — precisely the "one memory per
    // processor" model of HEFT-era schedulers (§6).
    double best_estimate = std::numeric_limits<double>::infinity();
    for (const ProcKind k : machine.proc_kinds()) {
      if (k == ProcKind::kGpu && !task.cost.has_gpu_variant()) continue;
      const ProcGroup& pg = machine.proc_group(k);
      const double per_point = k == ProcKind::kGpu
                                   ? task.cost.gpu_seconds_per_point
                                   : task.cost.cpu_seconds_per_point;
      const double waves = std::ceil(static_cast<double>(task.num_points) /
                                     pg.count_per_node);
      double estimate =
          waves * (pg.launch_overhead_s + per_point / pg.speed);
      const MemKind mem = machine.best_memory_for(k);
      for (const CollectionUse& use : task.args) {
        estimate += static_cast<double>(graph.collection_bytes(
                        use.collection)) *
                    use.access_fraction /
                    machine.affinity(k, mem).bandwidth_bytes_per_s;
      }
      if (estimate < best_estimate) {
        best_estimate = estimate;
        tm.proc = k;
      }
    }
    std::ranges::fill(mapping.memories(task.id),
                      MemPriority{machine.best_memory_for(tm.proc)});
  }

  eval.begin_search("HEFT-static", mapping);
  (void)eval.evaluate(mapping);
  return eval.finalize();
}

SearchResult run_ccd_multistart(const Simulator& sim,
                                const SearchOptions& options) {
  constexpr int kExtraStarts = 2;
  Evaluator eval(sim, options);
  Rng rng(mix64(options.seed) ^ 0xd6e8feb86659fd93ULL);

  // Frozen tasks (§3.3) keep their starting decisions in every random
  // start. A descent that trips the fault circuit breaker ends the search.
  const Mapping first = search_starting_point(sim.graph(), sim.machine());
  eval.begin_search("AM-CCD-multistart", first);
  detail::descend(eval, sim, options, /*constrained=*/true, first);
  for (int s = 0; s < kExtraStarts && !eval.budget_exhausted() &&
                  !eval.stats().degraded;
       ++s) {
    Mapping start = random_valid_mapping(sim.graph(), sim.machine(), rng);
    for (const TaskId t : options.frozen_tasks) start.copy_task(t, first);
    if (Journal* journal = eval.journal())
      journal->event("restart").str("start", start.serialize());
    detail::descend(eval, sim, options, /*constrained=*/true, start);
  }
  return eval.finalize();
}

}  // namespace automap
