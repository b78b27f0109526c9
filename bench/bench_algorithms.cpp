// Extended search-algorithm comparison (beyond the paper's Fig. 9 trio):
// every algorithm in the search registry — CCD, CD, the ensemble tuner,
// random search, simulated annealing, the HEFT-style static baseline and
// multi-start CCD — on Circuit, HTR and a memory-constrained Pennant. CCD
// runs unbudgeted; every other algorithm gets a simulated time budget, a
// constant beside each case: CCD's clock on that input when the budgets
// were fixed, rounded up to the next 10 s (three times that for
// multistart). So a change that makes only CCD cheaper leaves the other
// rows where they are.
//
// The HEFT row demonstrates the paper's §6 argument directly: static
// scheduling with a single memory per processor cannot exploit the
// task/data trade-off, so it matches the default mapper at best.

#include <iostream>
#include <string>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/pennant.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/search/algorithms.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace {
using namespace automap;

void run_case(const BenchmarkApp& app, const MachineModel& machine,
              double budget, bool memory_fallbacks = false) {
  Simulator sim(machine, app.graph, app.sim);

  const SearchAlgorithmInfo* ccd_info = find_search_algorithm("ccd");
  const SearchResult ccd =
      ccd_info->run(sim, {.rotations = 5, .repeats = 7, .seed = 42,
                          .memory_fallbacks = memory_fallbacks});
  SearchOptions budgeted{.rotations = 5, .repeats = 7,
                         .time_budget_s = budget,
                         .seed = 42};
  budgeted.memory_fallbacks = memory_fallbacks;

  std::vector<SearchResult> results = {ccd};
  for (const SearchAlgorithmInfo& info : search_algorithms()) {
    if (info.name == "ccd") continue;
    SearchOptions options = budgeted;
    // Multistart gets 3x the budget (it runs up to three CCD descents).
    if (info.name == "multistart") options.time_budget_s = 3 * budget;
    results.push_back(info.run(sim, options));
  }

  std::cout << "\n-- " << app.name << " " << app.input << " (budget "
            << format_seconds(budget) << ") --\n";
  Table table({"algorithm", "best exec", "vs CCD", "evaluated"});
  for (const SearchResult& r : results) {
    table.add_row({r.algorithm, format_seconds(r.best_seconds),
                   format_fixed(r.best_seconds / ccd.best_seconds, 2),
                   std::to_string(r.stats.evaluated)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "=== Extended algorithm comparison (Shepard, 1 node) ===\n";
  const MachineModel machine = make_shepard(1);
  // Budgets in simulated seconds; CCD's clock read 2.3, 44.1 and 16495.7 s
  // on these inputs.
  run_case(make_circuit(circuit_config_for(1, 1)), machine, 10);
  run_case(make_htr(htr_config_for(1, 1)), machine, 50);

  // Memory-constrained Pennant (+7 % over the Frame-Buffer, §5.2): static
  // scheduling has no way to pick *which* collections to demote — its
  // first-fit fallbacks land arbitrarily — while CCD chooses the subset.
  PennantConfig overflow;
  overflow.zones_y = (pennant_max_fb_zones_y(
                          machine.mem_capacity(MemKind::kFrameBuffer), 1, 1) *
                      107) /
                     100;
  run_case(make_pennant(overflow), machine, 16500,
           /*memory_fallbacks=*/true);
  return 0;
}
