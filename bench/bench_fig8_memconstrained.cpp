// Reproduces Figure 8: Pennant with inputs +1.3 %, +7.1 % and +14.3 %
// larger than the largest input that fits entirely in Frame-Buffer memory,
// on 1 and 4 nodes of both Shepard and Lassen (§5.2).
//
// Baseline "GPU+ZC" places *all* collections in Zero-Copy (the
// straightforward bigger-but-slower choice). AutoMap searches with §3.1
// memory priority lists enabled, so it finds a subset of collections to
// keep in the Frame-Buffer and demotes the rest.
//
// Expected shape (paper): AutoMap at least 4x faster than all-Zero-Copy
// (up to 50x at +1.3 %), degrading as the overflow grows; several
// collection arguments demoted per mapping.

#include <iostream>

#include "src/apps/pennant.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace {
using namespace automap;

Mapping all_zero_copy(const TaskGraph& graph) {
  Mapping m(graph);
  for (const GroupTask& t : graph.tasks()) {
    m.at(t.id).proc =
        t.cost.has_gpu_variant() ? ProcKind::kGpu : ProcKind::kCpu;
    std::ranges::fill(m.memories(t.id), MemPriority{MemKind::kZeroCopy});
  }
  return m;
}

}  // namespace

int main() {
  std::cout << "=== Figure 8: Pennant execution time, inputs larger than "
               "the Frame-Buffer ===\n";

  const struct {
    const char* label;
    double over;
  } kOverflows[] = {{"+1.3%", 1.013}, {"+7.1%", 1.071}, {"+14.3%", 1.143}};

  for (const bool lassen : {false, true}) {
    for (const int nodes : {1, 4}) {
      const MachineModel machine =
          lassen ? make_lassen(nodes) : make_shepard(nodes);
      const int gpus = machine.procs_per_node(ProcKind::kGpu);
      const long max_y = pennant_max_fb_zones_y(
          machine.mem_capacity(MemKind::kFrameBuffer), nodes, gpus);

      Table table({"input", "GPU+ZC", "AutoMap", "speedup", "demoted args"});
      for (const auto& overflow : kOverflows) {
        PennantConfig config;
        config.num_nodes = nodes;
        config.zones_y =
            static_cast<long>(static_cast<double>(max_y) * overflow.over);
        const BenchmarkApp app = make_pennant(config);
        Simulator sim(machine, app.graph, app.sim);

        const double zc_s =
            measure_mapping(sim, all_zero_copy(app.graph), 31, 1);

        const SearchResult result = automap_optimize(
            sim, SearchAlgorithm::kCcd,
            {.rotations = 5, .repeats = 7, .seed = 42,
             .memory_fallbacks = true});
        // The winner carries the fallback lists it was measured with.
        const double am_s = measure_mapping(sim, result.best, 31, 2);
        const auto report = sim.run(result.best, 99);

        table.add_row({overflow.label, format_seconds(zc_s),
                       format_seconds(am_s), format_speedup(zc_s / am_s),
                       std::to_string(report.ok ? report.demoted_args : -1)});
      }
      std::cout << "\n-- " << machine.name() << ", " << nodes
                << " node(s), max in-FB input: 320x" << max_y << " --\n";
      table.print(std::cout);
    }
  }
  return 0;
}
