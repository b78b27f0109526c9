// Reproduces Figure 7: Maestro multi-fidelity ensemble CFD (§5.1).
//
// A high-fidelity sample is pinned to the GPUs with its data filling the
// Frame-Buffer; the question is where to run the low-fidelity ensemble.
// For each LF sample count and resolution we report the *slowdown of the
// run relative to the HF simulation executing alone* (1.0 = the LF
// ensemble is free) under three strategies:
//   cpu+sys : all LF tasks on CPUs, data in System memory;
//   gpu+zc  : all LF tasks on GPUs, data in Zero-Copy memory;
//   AutoMap : CCD search over the LF mapping (HF pinned, as the paper
//             configures Maestro).
//
// Expected shape (paper): neither fixed strategy is always best — small
// ensembles at high resolution favour GPU+ZC, large ensembles at low
// resolution favour the CPUs — and AutoMap matches or beats both.

#include <iostream>

#include "src/apps/maestro.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/format.hpp"
#include "src/support/table.hpp"

namespace {
using namespace automap;

/// Pins the HF tasks to GPU + FrameBuffer in-place.
void pin_hf(Mapping& m, const BenchmarkApp& app) {
  for (const TaskId t : maestro_hf_tasks(app)) {
    m.at(t).proc = ProcKind::kGpu;
    m.at(t).distribute = true;
    std::ranges::fill(m.memories(t), MemPriority{MemKind::kFrameBuffer});
  }
}

Mapping lf_strategy(const BenchmarkApp& app, ProcKind proc, MemKind mem) {
  Mapping m(app.graph);
  pin_hf(m, app);
  for (const TaskId t : maestro_lf_tasks(app)) {
    m.at(t).proc = proc;
    m.at(t).distribute = true;
    std::ranges::fill(m.memories(t), MemPriority{mem});
  }
  return m;
}

}  // namespace

int main() {
  std::cout << "=== Figure 7: Maestro HF slowdown vs HF running alone "
               "(lower is better, 1.0 = free LF ensemble) ===\n";

  for (const int nodes : {1, 2}) {
    const MachineModel machine = make_shepard(nodes);
    Table table({"LF samples", "LF resolution", "cpu+sys", "gpu+zc",
                 "AutoMap"});

    // Baseline: the HF simulation alone.
    MaestroConfig alone;
    alone.num_lf_samples = 0;
    alone.num_nodes = nodes;
    const BenchmarkApp hf_only = make_maestro(alone);
    Simulator hf_sim(machine, hf_only.graph, hf_only.sim);
    DefaultMapper dm;
    const double hf_alone_s =
        measure_mapping(hf_sim, dm.map_all(hf_only.graph, machine), 31, 1);

    for (const int resolution : {16, 32}) {
      for (const int samples : {8, 16, 32, 64}) {
        MaestroConfig c = alone;
        c.num_lf_samples = samples;
        c.lf_resolution = resolution;
        const BenchmarkApp app = make_maestro(c);
        Simulator sim(machine, app.graph, app.sim);

        const double cpu_s = measure_mapping(
            sim, lf_strategy(app, ProcKind::kCpu, MemKind::kSystem), 31, 1);
        const double gpu_s = measure_mapping(
            sim, lf_strategy(app, ProcKind::kGpu, MemKind::kZeroCopy), 31, 1);

        // AutoMap: the paper's Maestro configuration searches only the LF
        // tasks (§3.3's subset search); the HF tasks are frozen at the
        // starting point (GPU + Frame-Buffer).
        SearchOptions options{.rotations = 5, .repeats = 7, .seed = 42};
        options.frozen_tasks = maestro_hf_tasks(app);
        const SearchResult result =
            automap_optimize(sim, SearchAlgorithm::kCcd, options);
        const double am_s = measure_mapping(sim, result.best, 31, 2);

        table.add_row({std::to_string(samples),
                       std::to_string(resolution) + "^3",
                       format_fixed(cpu_s / hf_alone_s, 2),
                       format_fixed(gpu_s / hf_alone_s, 2),
                       format_fixed(am_s / hf_alone_s, 2)});
      }
    }
    std::cout << "\n-- " << nodes << " node(s), HF alone: "
              << format_seconds(hf_alone_s) << " --\n";
    table.print(std::cout);
  }
  return 0;
}
