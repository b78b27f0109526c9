// Developer utility: run the CCD search on a chosen app/input/nodes and
// print the discovered mapping, its diff against the default mapper, and
// per-task execution reports under both mappings.
//
// Usage: inspect_mapping <circuit|stencil|pennant|htr> <nodes> <step>

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/report/profile.hpp"
#include "src/report/visualize.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"

int main(int argc, char** argv) {
  using namespace automap;
  const std::string name = argc > 1 ? argv[1] : "circuit";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 1;
  const int step = argc > 3 ? std::atoi(argv[3]) : 0;

  BenchmarkApp app = name == "stencil"
                         ? make_stencil(stencil_config_for(nodes, step))
                     : name == "pennant"
                         ? make_pennant(pennant_config_for(nodes, step))
                     : name == "htr" ? make_htr(htr_config_for(nodes, step))
                                     : make_circuit(
                                           circuit_config_for(nodes, step));
  const MachineModel machine = make_shepard(nodes);
  Simulator sim(machine, app.graph, app.sim);

  DefaultMapper dm;
  const Mapping def = dm.map_all(app.graph, machine);
  const SearchResult res =
      automap_optimize(sim, SearchAlgorithm::kCcd, {.seed = 42 + static_cast<std::uint64_t>(step)});

  auto report = [&](const char* label, const Mapping& m) {
    const auto r = sim.run(m, 99);
    std::cout << label << ": total " << format_seconds(r.total_seconds)
              << ", copies intra " << format_bytes(r.intra_node_copy_bytes)
              << " inter " << format_bytes(r.inter_node_copy_bytes)
              << " per iter\n";
    if (!r.ok) return;
    for (const TaskTimeBreakdown& t : task_times(app.graph, r)) {
      std::cout << "    " << app.graph.task(t.task).name << ": compute "
                << format_seconds(t.busy_seconds) << ", wait "
                << format_seconds(t.copy_wait_seconds) << "\n";
    }
  };
  report("default", def);
  report("AM-CCD ", res.best);

  std::cout << "\ndiff vs default:\n";
  for (const auto& d : def.diff(res.best, app.graph))
    std::cout << "  " << d << "\n";

  const auto base_report = sim.run(def, 99);
  const auto best_report = sim.run(res.best, 99);
  if (base_report.ok && best_report.ok) {
    std::cout << "\nwhy the discovered mapping wins:\n"
              << compare_runs(app.graph, base_report, best_report);
  }
  if (best_report.ok) {
    std::cout << "\nexecution profile of the discovered mapping:\n"
              << render_profile(app.graph,
                                compute_profile(app.graph, best_report));
  }

  std::cout << "\nFig. 3-style rendering:\n"
            << render_mapping(app.graph, res.best);
  return 0;
}
