#pragma once

// Additional pluggable search algorithms (§3: "the search algorithms are
// pluggable components that can be replaced"):
//
//  * random search — the classic autotuning floor: uniform valid mappings;
//  * simulated annealing — accepts cost-increasing moves with decaying
//    probability, the standard answer to the local-minimum problem that
//    §4.2 argues CCD solves with coordinated moves instead;
//  * a HEFT-style static list scheduler — representative of the
//    heterogeneous-scheduling line of work the paper contrasts with (§6):
//    it assigns each task to the processor kind minimizing its *static*
//    cost estimate and derives the data placement from the processor
//    choice (one memory per processor), i.e. it never explores the
//    task/data trade-off that motivates AutoMap.

#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {

/// Uniform random sampling of *valid* mappings under a time budget.
[[nodiscard]] SearchResult run_random_search(const Simulator& sim,
                                             const SearchOptions& options);

/// Simulated annealing over the valid-mapping space: two mutations per
/// proposal, an initial temperature of 0.2 x the starting cost, cooled by
/// 0.995 per proposal.
[[nodiscard]] SearchResult run_simulated_annealing(
    const Simulator& sim, const SearchOptions& options);

/// HEFT-style static mapping: no search at all. Each task goes to the
/// processor kind with the lower static execution estimate (compute +
/// memory traffic from the kind's best memory), its collections to that
/// kind's highest-bandwidth memory. Returned as a degenerate SearchResult
/// so it can be compared alongside the search algorithms.
[[nodiscard]] SearchResult run_heft_static(const Simulator& sim,
                                           const SearchOptions& options);

/// Multi-start CCD (an "improved algorithm" in the direction the paper's
/// §7 leaves open): one search whose evaluator runs a CCD descent from the
/// standard §4.1 starting point, then one from each of two random valid
/// starting points while the budget lasts. The descents share the profiles
/// database, the finalist list, the censor line, the budget and the
/// checkpoint log, and the finalist protocol runs once. Costs up to three
/// descents' search time; can escape starting-point bias on rugged
/// instances.
[[nodiscard]] SearchResult run_ccd_multistart(const Simulator& sim,
                                              const SearchOptions& options);

}  // namespace automap
