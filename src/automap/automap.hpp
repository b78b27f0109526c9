#pragma once

// AutoMap facade (§3, Figure 4): the driver that owns the search algorithms
// and profiles database, paired with the mapper that replays candidate
// mappings through the runtime. `automap_optimize` is the offline search
// entry point: it requires no modification to the application — only its
// lowered task graph (the "search space file" of §3.3) and a machine model.

#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"

namespace automap {

/// The paper's three algorithms; each names a row of the search-algorithm
/// registry (src/search/algorithms.hpp): "ccd", "cd" and "ot".
enum class SearchAlgorithm {
  kCcd,            // constrained coordinate-wise descent (the default)
  kCd,             // plain coordinate-wise descent
  kEnsembleTuner,  // generic OpenTuner-style ensemble
};

/// Runs the offline mapping search and returns the best mapping found,
/// selected by the finalist protocol (top-5 re-run 31 times, §5).
[[nodiscard]] SearchResult automap_optimize(
    const Simulator& sim, SearchAlgorithm algorithm = SearchAlgorithm::kCcd,
    const SearchOptions& options = {});

/// Mean execution time of a fixed mapping over `repeats` runs — the
/// measurement protocol used to report all Fig. 6-8 numbers. Returns
/// infinity when any run fails.
[[nodiscard]] double measure_mapping(const Simulator& sim,
                                     const Mapping& mapping, int repeats,
                                     std::uint64_t seed);

// --- inspector-executor mode (extension; §6 "Profile-Guided Optimization")

/// Online tuning of a long production run: an initial portion of the run's
/// iterations is spent executing candidate mappings (the inspector), and
/// the remainder executes under the best mapping found (the executor).
struct OnlineOptions {
  /// Length of the production run in main-loop iterations. Must exceed the
  /// iterations the search consumes.
  long total_iterations = 100000;
  SearchAlgorithm algorithm = SearchAlgorithm::kCcd;
  SearchOptions search;
};

struct OnlineResult {
  Mapping best;
  /// Main-loop iterations consumed evaluating candidates.
  long search_iterations = 0;
  /// Wall time of the tuned production run (search window + remainder at
  /// the best mapping).
  double online_seconds = 0.0;
  /// Wall time of the same run under the default mapper throughout.
  double default_seconds = 0.0;

  [[nodiscard]] double speedup() const {
    return default_seconds / online_seconds;
  }
};

/// Runs the inspector-executor model against the simulator. The simulator's
/// configured iteration count is the per-candidate evaluation window.
[[nodiscard]] OnlineResult automap_online(const Simulator& sim,
                                          const OnlineOptions& options);

}  // namespace automap
