// Reproduces the §5.3 search-efficiency statistics on Pennant: mappings
// suggested vs evaluated per algorithm and the share of search time spent
// executing candidates.
//
// Paper values (Pennant): CCD suggests 1941, evaluates ~460; CD suggests
// 389, evaluates ~226; OpenTuner suggests ~157k, evaluates ~273. CCD/CD
// spend 99 % of the time evaluating; OpenTuner 13-45 %.

#include <iostream>
#include <string>

#include "src/apps/pennant.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/search/ensemble_tuner.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

int main() {
  using namespace automap;

  std::cout << "=== Section 5.3: search-efficiency statistics (Pennant "
               "320x180, Shepard 1 node) ===\n\n";

  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_pennant(pennant_config_for(1, 1));
  Simulator sim(machine, app.graph, app.sim);

  const SearchResult ccd = automap_optimize(
      sim, SearchAlgorithm::kCcd,
      {.rotations = 5, .repeats = 7, .seed = 42});
  const SearchOptions budgeted{.rotations = 5, .repeats = 7,
                               .time_budget_s = ccd.stats.search_time_s,
                               .seed = 42};
  const SearchResult cd = automap_optimize(sim, SearchAlgorithm::kCd,
                                           budgeted);
  const SearchResult ot = run_ensemble_tuner(sim, budgeted);

  Table table({"algorithm", "suggested", "evaluated", "invalid",
               "eval fraction", "best exec"});
  for (const SearchResult* r : {&ccd, &cd, &ot}) {
    table.add_row({r->algorithm, std::to_string(r->stats.suggested),
                   std::to_string(r->stats.evaluated),
                   std::to_string(r->stats.invalid),
                   format_fixed(r->stats.evaluation_fraction(), 2),
                   format_seconds(r->best_seconds)});
  }
  table.print(std::cout);
  return 0;
}
