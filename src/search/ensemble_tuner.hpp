#pragma once

// Ensemble tuner — the OpenTuner stand-in (§4.3).
//
// A generic autotuner in the OpenTuner mold: an ensemble of search
// techniques (pure random, hill climbing on the incumbent, genetic
// crossover of elites) run under a multi-armed-bandit budget allocator that
// shifts proposals toward whichever technique has recently produced
// improvements. Crucially — and this is the paper's point — the tuner
// cannot express the *constrained* structure of the mapping space: it
// proposes processor/memory combinations independently, so most proposals
// are invalid (a CPU task with a Frame-Buffer argument) or duplicates, and
// AutoMap answers those with a penalty value without executing them. That
// is why OpenTuner suggests orders of magnitude more mappings than it
// evaluates and spends only 13-45 % of its time executing candidates
// (§5.3), while CCD/CD spend 99 %.

#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {

/// Each suggestion charges 120 ms of simulated tuner overhead to the search
/// clock (OpenTuner's Python search/results-database stack costs tens of
/// milliseconds per proposal — the reason the paper measures it spending
/// only 13-45 % of the search budget on actual evaluations). An unbudgeted
/// run stops after 200,000 suggestions or 2,000 evaluations.
[[nodiscard]] SearchResult run_ensemble_tuner(const Simulator& sim,
                                              const SearchOptions& options);

}  // namespace automap
