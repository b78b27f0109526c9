#include "src/automap/automap.hpp"

#include <limits>

#include "src/runtime/mapper.hpp"
#include "src/search/algorithms.hpp"
#include "src/support/error.hpp"
#include "src/support/rng.hpp"

namespace automap {

SearchResult automap_optimize(const Simulator& sim, SearchAlgorithm algorithm,
                              const SearchOptions& options) {
  // Registry names, in SearchAlgorithm order.
  static constexpr const char* kNames[] = {"ccd", "cd", "ot"};
  return find_search_algorithm(kNames[static_cast<int>(algorithm)])
      ->run(sim, options);
}

double measure_mapping(const Simulator& sim, const Mapping& mapping,
                       int repeats, std::uint64_t seed) {
  AM_REQUIRE(repeats > 0, "repeats must be positive");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SimScratch scratch;
  // One validation + memory resolution serves every repeat (both are
  // noise-independent).
  if (!sim.begin_runs(mapping, scratch)) return kInf;
  double sum = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const ExecutionReport& report = sim.run_prepared(
        mapping, mix64(seed + 1000003ULL * static_cast<std::uint64_t>(r)),
        scratch, kInf);
    if (!report.ok) return kInf;
    sum += report.total_seconds;
  }
  return sum / repeats;
}

OnlineResult automap_online(const Simulator& sim,
                            const OnlineOptions& options) {
  AM_REQUIRE(options.total_iterations > 0, "need a positive run length");
  const long window = sim.options().iterations;

  const SearchResult search =
      automap_optimize(sim, options.algorithm, options.search);

  OnlineResult result;
  result.best = search.best;

  // Iterations consumed by the inspector: every evaluated candidate ran
  // `repeats` windows, and the finalist protocol re-ran the top-k.
  result.search_iterations =
      static_cast<long>(search.stats.evaluated) * options.search.repeats *
          window +
      static_cast<long>(options.search.top_k) *
          options.search.final_repeats * window;
  AM_REQUIRE(result.search_iterations < options.total_iterations,
             "production run too short to amortize the online search; "
             "needs more than " +
                 std::to_string(result.search_iterations) + " iterations");

  const long remainder = options.total_iterations - result.search_iterations;
  const double best_per_iter =
      search.best_seconds / static_cast<double>(window);
  result.online_seconds =
      search.stats.search_time_s + best_per_iter * remainder;

  // Baseline: the default mapper for the whole run.
  DefaultMapper dm;
  const double default_window =
      measure_mapping(sim, dm.map_all(sim.graph(), sim.machine()),
                      options.search.repeats, options.search.seed + 1);
  result.default_seconds = default_window / window *
                           static_cast<double>(options.total_iterations);
  return result;
}

}  // namespace automap
