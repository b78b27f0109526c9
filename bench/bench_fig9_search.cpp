// Reproduces Figure 9: best execution time per iteration as a function of
// search time for the three search algorithms (AM-CCD, AM-CD, AM-OT) on
// Pennant (320x90, 320x180) and HTR (8x8y9z, 16x16y18z), all given the same
// simulated time budget (§5.3).
//
// Expected shape (paper): CCD reaches the fastest mappings (up to 1.57x
// better than the others); CD plateaus earlier and higher (it is CCD's
// final rotation alone); the ensemble tuner converges slowest because it
// wastes proposals on invalid/duplicate mappings.
//
// --no-prune disables incumbent-bounded candidate pruning: every
// simulated-seconds statistic, trajectory point and chosen mapping stays
// bit-identical, only the wall-clock column grows — the flag exists to
// demonstrate (and measure) exactly that. --preset pennant|htr|stencil|all
// selects the app series (default all). --telemetry prints the
// per-algorithm search telemetry (cache hit rate, rotation deltas, wall vs
// simulated clocks); --trace-json PATH exports a Chrome-trace timeline of
// the last case's AM-CCD winner.

#include <chrono>
#include <iostream>
#include <string>

#include "bench/fig6_common.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/search/ensemble_tuner.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace {
using namespace automap;

/// Wall-clock seconds of one call (the real time the search costs us, as
/// opposed to the simulated seconds it charges the search clock).
template <typename Fn>
SearchResult timed(Fn&& fn, double& wall_s) {
  const auto start = std::chrono::steady_clock::now();
  SearchResult result = fn();
  wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count();
  return result;
}

void run_case(const BenchmarkApp& app, const MachineModel& machine,
              const bench::BenchObservability& opts) {
  Simulator sim(machine, app.graph, app.sim);

  // Budget: what a full CCD needs, shared by all three algorithms.
  double ccd_wall = 0.0, cd_wall = 0.0, ot_wall = 0.0;
  // No pass here reuses the profiles database, so skip serializing it —
  // the wall-clock column should measure the search, not the export.
  const SearchOptions base{.rotations = 5, .repeats = 7, .seed = 42,
                           .prune_candidates = opts.prune,
                           .export_profiles_db = false};
  const SearchResult ccd = timed(
      [&] { return automap_optimize(sim, SearchAlgorithm::kCcd, base); },
      ccd_wall);
  const double budget = ccd.stats.search_time_s;
  SearchOptions budgeted = base;
  budgeted.time_budget_s = budget;
  const SearchResult cd = timed(
      [&] { return automap_optimize(sim, SearchAlgorithm::kCd, budgeted); },
      cd_wall);
  const SearchResult ot = timed(
      [&] { return run_ensemble_tuner(sim, budgeted); }, ot_wall);

  std::cout << "\n-- " << app.name << " " << app.input
            << " (budget " << format_seconds(budget) << ") --\n";
  Table table({"algorithm", "best exec/iter", "search time", "wall clock",
               "suggested", "evaluated", "eval frac"});
  const int iters = app.sim.iterations;
  const double walls[] = {ccd_wall, cd_wall, ot_wall};
  const SearchResult* results[] = {&ccd, &cd, &ot};
  for (int i = 0; i < 3; ++i) {
    const SearchResult* r = results[i];
    table.add_row({r->algorithm, format_seconds(r->best_seconds / iters),
                   format_seconds(r->stats.search_time_s),
                   format_seconds(walls[i]),
                   std::to_string(r->stats.suggested),
                   std::to_string(r->stats.evaluated),
                   format_fixed(r->stats.evaluation_fraction(), 2)});
  }
  table.print(std::cout);

  // Convergence trajectories: (search time, best exec time/iteration).
  for (const SearchResult* r : results) {
    std::cout << "  " << r->algorithm << " trajectory:";
    for (const TrajectoryPoint& p : r->trajectory) {
      std::cout << " (" << format_fixed(p.search_time_s, 1) << "s, "
                << format_seconds(p.best_exec_s / iters) << ")";
    }
    std::cout << "\n";
  }

  if (opts.telemetry) {
    for (const SearchResult* r : results)
      std::cout << render_search_telemetry(*r);
  }
  bench::emit_bench_observability(machine, app, ccd.best, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchObservability opts =
      bench::parse_bench_observability(argc, argv);
  std::string preset = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--preset" && i + 1 < argc)
      preset = argv[i + 1];
  }

  std::cout << "=== Figure 9: search-algorithm comparison (Shepard, "
               "1 node) ===\n";
  const MachineModel machine = make_shepard(1);
  if (preset == "all" || preset == "pennant") {
    for (const int step : {0, 1})
      run_case(make_pennant(pennant_config_for(1, step)), machine, opts);
  }
  if (preset == "all" || preset == "htr") {
    for (const int step : {0, 1})
      run_case(make_htr(htr_config_for(1, step)), machine, opts);
  }
  if (preset == "all" || preset == "stencil") {
    for (const int step : {0, 1})
      run_case(make_stencil(stencil_config_for(1, step)), machine, opts);
  }
  return 0;
}
