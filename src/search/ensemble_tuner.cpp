#include "src/search/ensemble_tuner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/report/journal.hpp"
#include "src/support/error.hpp"

namespace automap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Uniformly random value of one mapping dimension, ignoring constraints —
/// the tuner has no notion of addressability.
MemKind random_mem(Rng& rng) {
  return kAllMemKinds[rng.uniform_index(kNumMemKinds)];
}
ProcKind random_proc(Rng& rng) {
  return kAllProcKinds[rng.uniform_index(kNumProcKinds)];
}

/// Overwrites `m` (already graph-shaped) with a uniformly random mapping.
/// In-place so the proposal loop reuses one candidate buffer instead of
/// constructing a fresh Mapping per suggestion.
void random_mapping_into(Mapping& m, const TaskGraph& graph, Rng& rng) {
  for (const GroupTask& task : graph.tasks()) {
    TaskMapping& tm = m.at(task.id);
    tm.distribute = rng.bernoulli(0.5);
    tm.blocked = false;
    tm.proc = random_proc(rng);
    for (auto& mem : m.memories(task.id)) mem.assign(1, random_mem(rng));
  }
}

/// Mutates `count` random dimensions of a mapping in place.
void mutate(Mapping& m, const TaskGraph& graph, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const TaskId t(rng.uniform_index(graph.num_tasks()));
    TaskMapping& tm = m.at(t);
    const auto memories = m.memories(t);
    const std::size_t dims = 2 + memories.size();
    const std::size_t dim = rng.uniform_index(dims);
    if (dim == 0) {
      tm.distribute = !tm.distribute;
    } else if (dim == 1) {
      tm.proc = random_proc(rng);
    } else {
      memories[dim - 2] = {random_mem(rng)};
    }
  }
}

/// Uniform crossover of two parents into `child` (assignment reuses the
/// child's existing buffers).
void crossover_into(Mapping& child, const Mapping& a, const Mapping& b,
                    const TaskGraph& graph, Rng& rng) {
  child = a;
  for (const GroupTask& task : graph.tasks()) {
    if (rng.bernoulli(0.5)) child.copy_task(task.id, b);
  }
}

enum Technique : std::size_t {
  kRandom = 0,
  kHillClimb = 1,
  kGenetic = 2,
  kNumTechniques = 3,
};

/// AUC-bandit technique selector: exploit recent improvement rate, explore
/// proportionally to 1/sqrt(trials).
struct Bandit {
  std::array<double, kNumTechniques> score{};
  std::array<double, kNumTechniques> trials{};

  std::size_t pick(Rng& rng) {
    std::size_t best = 0;
    double best_value = -kInf;
    for (std::size_t i = 0; i < kNumTechniques; ++i) {
      const double exploit =
          trials[i] > 0 ? score[i] / trials[i] : 1.0;
      const double explore = std::sqrt(1.0 / (1.0 + trials[i]));
      const double value = exploit + explore + 0.01 * rng.uniform();
      if (value > best_value) {
        best_value = value;
        best = i;
      }
    }
    return best;
  }

  void reward(std::size_t technique, bool improved) {
    trials[technique] += 1.0;
    if (improved) score[technique] += 1.0;
    // Exponential decay keeps the allocator adaptive.
    for (auto& s : score) s *= 0.995;
  }
};

}  // namespace

SearchResult run_ensemble_tuner(const Simulator& sim,
                                const SearchOptions& options) {
  constexpr double kOverheadPerSuggestionS = 120e-3;
  constexpr std::size_t kMaxSuggestions = 200000;
  constexpr std::size_t kMaxEvaluations = 2000;
  Evaluator eval(sim, options);
  const TaskGraph& graph = sim.graph();
  const MachineModel& machine = sim.machine();
  Rng rng(mix64(options.seed) ^ 0x9e2a5cb1d3f7e846ULL);
  Bandit bandit;

  // Elite pool for hill climbing and crossover, seeded with the default
  // starting point so the tuner has at least one valid incumbent.
  std::vector<Mapping> elites;
  elites.push_back(search_starting_point(graph, machine));
  eval.begin_search("AM-OT", elites.front());
  double best = eval.evaluate(elites.front());

  // §3.3 subset search: frozen tasks keep the starting-point decisions.
  // (Copied: the elite pool reallocates as the search progresses.)
  const Mapping start = elites.front();
  auto restore_frozen = [&](Mapping& m) {
    for (const TaskId t : options.frozen_tasks) m.copy_task(t, start);
  };

  std::size_t suggestions = 1;
  // Reused proposal buffer: every technique overwrites it fully, and
  // assignment recycles its heap blocks instead of reallocating per
  // suggestion.
  Mapping candidate = elites.front();
  while (!eval.budget_exhausted() &&
         suggestions < kMaxSuggestions &&
         eval.stats().evaluated < kMaxEvaluations) {
    // OpenTuner-style allocation: half the proposals follow the bandit's
    // exploit choice, half are uniform exploration across the ensemble.
    // Exploration keeps feeding the pure-random technique, whose proposals
    // in a constrained space are almost always invalid or duplicates —
    // the source of the paper's 157k-suggested vs 273-evaluated gap.
    const std::size_t technique = rng.bernoulli(0.5)
                                      ? rng.uniform_index(kNumTechniques)
                                      : bandit.pick(rng);

    switch (technique) {
      case kRandom:
        random_mapping_into(candidate, graph, rng);
        break;
      case kHillClimb: {
        candidate = elites[rng.uniform_index(elites.size())];
        mutate(candidate, graph, rng,
               1 + static_cast<int>(rng.uniform_index(3)));
        break;
      }
      case kGenetic: {
        const Mapping& a = elites[rng.uniform_index(elites.size())];
        const Mapping& b = elites[rng.uniform_index(elites.size())];
        crossover_into(candidate, a, b, graph, rng);
        mutate(candidate, graph, rng, 1);
        break;
      }
      default:
        AM_UNREACHABLE("bad technique");
    }

    restore_frozen(candidate);
    ++suggestions;
    eval.charge_overhead(kOverheadPerSuggestionS);
    // Candidates worse than the tuner's incumbent only need to be known as
    // such: censor at `best` (or the k-th finalist, when that is looser). A
    // censored value folds to the censor threshold (>= best), which takes
    // the same not-improved branch below an exact mean would.
    const double value = eval.evaluate(candidate, eval.censor_threshold(best));

    const bool improved = value < best;
    if (improved) {
      best = value;
      elites.insert(elites.begin(), candidate);
      if (elites.size() > 8) elites.pop_back();
    } else if (value < kInf && elites.size() < 8) {
      elites.push_back(candidate);
    }
    bandit.reward(technique, improved);
    if (options.journal != nullptr) {
      static constexpr const char* kTechniqueNames[kNumTechniques] = {
          "random", "hill_climb", "genetic"};
      options.journal->event("tune")
          .str("technique", kTechniqueNames[technique])
          .boolean("improved", improved)
          .num("value", value);
    }
  }

  return eval.finalize();
}

}  // namespace automap
