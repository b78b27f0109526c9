// Multi-fidelity ensemble CFD mapping (paper §5.1, Figure 7).
//
// Maestro runs one expensive high-fidelity CFD sample (pinned to the GPUs,
// filling the Frame-Buffer) next to an ensemble of cheap low-fidelity
// samples. Where should the ensemble run so it disturbs the high-fidelity
// simulation as little as possible? This example compares the two obvious
// strategies with AutoMap's answer for one configuration.
//
// Usage: ensemble_cfd [num_lf_samples] [lf_resolution]   (default 32 32)

#include <cstdlib>
#include <iostream>

#include "src/apps/maestro.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"

int main(int argc, char** argv) {
  using namespace automap;
  MaestroConfig config;
  config.num_lf_samples = argc > 1 ? std::atoi(argv[1]) : 32;
  config.lf_resolution = argc > 2 ? std::atoi(argv[2]) : 32;

  const MachineModel machine = make_shepard(1);

  // Baseline: the high-fidelity sample running alone.
  MaestroConfig alone = config;
  alone.num_lf_samples = 0;
  const BenchmarkApp hf_only = make_maestro(alone);
  Simulator hf_sim(machine, hf_only.graph, hf_only.sim);
  DefaultMapper dm;
  const double hf_alone =
      measure_mapping(hf_sim, dm.map_all(hf_only.graph, machine), 31, 1);
  std::cout << "HF sample alone: " << format_seconds(hf_alone) << "\n\n";

  const BenchmarkApp app = make_maestro(config);
  Simulator sim(machine, app.graph, app.sim);
  std::cout << "ensemble: " << config.num_lf_samples << " LF samples at "
            << config.lf_resolution << "^3\n";

  auto strategy = [&](ProcKind proc, MemKind mem) {
    Mapping m(app.graph);
    for (const TaskId t : maestro_hf_tasks(app)) {
      m.at(t).proc = ProcKind::kGpu;
      std::ranges::fill(m.memories(t), MemPriority{MemKind::kFrameBuffer});
    }
    for (const TaskId t : maestro_lf_tasks(app)) {
      m.at(t).proc = proc;
      std::ranges::fill(m.memories(t), MemPriority{mem});
    }
    return m;
  };

  const double cpu_s = measure_mapping(
      sim, strategy(ProcKind::kCpu, MemKind::kSystem), 31, 1);
  const double gpu_s = measure_mapping(
      sim, strategy(ProcKind::kGpu, MemKind::kZeroCopy), 31, 1);
  std::cout << "LF on CPU+System   : HF slowed "
            << format_fixed(cpu_s / hf_alone, 2) << "x\n";
  std::cout << "LF on GPU+ZeroCopy : HF slowed "
            << format_fixed(gpu_s / hf_alone, 2) << "x\n";

  const SearchResult result = automap_optimize(
      sim, SearchAlgorithm::kCcd, {.rotations = 5, .repeats = 7, .seed = 42});
  const double am_s = measure_mapping(sim, result.best, 31, 2);
  std::cout << "AutoMap            : HF slowed "
            << format_fixed(am_s / hf_alone, 2) << "x\n\n";

  std::cout << "AutoMap's low-fidelity placement:\n";
  for (const TaskId t : maestro_lf_tasks(app)) {
    const TaskMapping& tm = result.best.at(t);
    std::cout << "  " << app.graph.task(t).name << " -> " << to_string(tm.proc)
              << " / " << to_string(result.best.primary_memory(t, 0)) << "\n";
  }
  return 0;
}
