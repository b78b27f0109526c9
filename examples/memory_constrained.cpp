// Memory-constrained mapping (paper §5.2, Figure 8).
//
// Scenario: you want to run Pennant with an input ~7 % larger than what
// fits in the GPUs' Frame-Buffer. The naive fix — putting everything in
// the bigger-but-slower Zero-Copy memory — is painfully slow. AutoMap, with
// the §3.1 memory *priority lists* enabled, searches for which collections
// to keep in the fast memory and which to demote, and finds mappings many
// times faster.
//
// Usage: memory_constrained [overflow_percent]   (default 7)

#include <cstdlib>
#include <iostream>

#include "src/apps/pennant.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"

int main(int argc, char** argv) {
  using namespace automap;
  const double overflow_pct = argc > 1 ? std::atof(argv[1]) : 7.0;

  const MachineModel machine = make_shepard(1);
  const long max_y = pennant_max_fb_zones_y(
      machine.mem_capacity(MemKind::kFrameBuffer), 1,
      machine.procs_per_node(ProcKind::kGpu));

  PennantConfig config;
  config.zones_y =
      static_cast<long>(static_cast<double>(max_y) * (1.0 + overflow_pct / 100.0));
  const BenchmarkApp app = make_pennant(config);
  std::cout << "Pennant " << app.input << " — "
            << format_bytes(pennant_total_bytes(config)) << " of data vs "
            << format_bytes(machine.mem_capacity(MemKind::kFrameBuffer))
            << " of Frame-Buffer (+" << overflow_pct << "%)\n\n";

  Simulator sim(machine, app.graph, app.sim);

  // Naive: GPU everywhere, all data in Frame-Buffer -> out of memory.
  Mapping all_fb(app.graph);
  const auto oom = sim.run(all_fb, 1);
  std::cout << "all in Frame-Buffer: "
            << (oom.ok ? "unexpectedly ok?!" : oom.failure) << "\n";

  // Naive fix: everything in Zero-Copy. Works, but slowly.
  Mapping all_zc(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    all_zc.at(t.id).proc =
        t.cost.has_gpu_variant() ? ProcKind::kGpu : ProcKind::kCpu;
    std::ranges::fill(all_zc.memories(t.id), MemPriority{MemKind::kZeroCopy});
  }
  const double zc_s = measure_mapping(sim, all_zc, 31, 1);
  std::cout << "all in Zero-Copy   : " << format_seconds(zc_s) << "\n";

  // AutoMap with memory fallbacks: the search places what it can in the
  // Frame-Buffer and the runtime demotes the rest down each argument's
  // priority list, which the returned mapping carries.
  const SearchResult result = automap_optimize(
      sim, SearchAlgorithm::kCcd,
      {.rotations = 5, .repeats = 7, .seed = 42, .memory_fallbacks = true});
  const double am_s = measure_mapping(sim, result.best, 31, 2);
  std::cout << "AutoMap            : " << format_seconds(am_s) << "  ("
            << format_speedup(zc_s / am_s) << " faster than all-Zero-Copy)\n";

  const auto report = sim.run(result.best, 99);
  if (report.ok) {
    std::cout << "\nfootprints of the discovered mapping:\n";
    for (const auto& fp : report.footprints) {
      std::cout << "  " << to_string(fp.kind) << ": "
                << format_bytes(fp.peak_instance_bytes) << " / "
                << format_bytes(fp.capacity_bytes) << " per allocation\n";
    }
    std::cout << report.demoted_args
              << " collection argument(s) demoted at runtime via priority "
                 "lists\n";
  }
  return 0;
}
