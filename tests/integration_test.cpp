// End-to-end integration tests: the paper's headline claims, asserted as
// invariants of the full pipeline (app generator -> runtime lowering ->
// simulator -> search -> finalist protocol).

#include <gtest/gtest.h>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/maestro.hpp"
#include "src/apps/pennant.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/mappers/custom_mappers.hpp"
#include "src/runtime/mapper.hpp"
#include "src/sim/simulator.hpp"

namespace automap {
namespace {

/// §5 "AutoMap finds better or equal mappings to the default mapper" —
/// checked across apps and input sizes.
TEST(Integration, AutoMapNeverLosesToDefaultMapper) {
  const MachineModel machine = make_shepard(1);
  DefaultMapper dm;
  for (const BenchmarkApp& app :
       {make_circuit(circuit_config_for(1, 0)),
        make_circuit(circuit_config_for(1, 7)),
        make_htr(htr_config_for(1, 1))}) {
    Simulator sim(machine, app.graph, app.sim);
    const double def =
        measure_mapping(sim, dm.map_all(app.graph, machine), 31, 1);
    const SearchResult res = automap_optimize(
        sim, SearchAlgorithm::kCcd, {.rotations = 5, .repeats = 7,
                                     .seed = 42});
    const double am = measure_mapping(sim, res.best, 31, 2);
    EXPECT_LE(am, def * 1.03) << app.name << " " << app.input;
  }
}

/// Fig. 6 shape: big AutoMap speedups at the smallest weak-scaled input,
/// converging toward the default at the largest.
TEST(Integration, SpeedupsShrinkAsInputsGrow) {
  const MachineModel machine = make_shepard(1);
  DefaultMapper dm;
  auto speedup = [&](int step) {
    const BenchmarkApp app = make_circuit(circuit_config_for(1, step));
    Simulator sim(machine, app.graph, app.sim);
    const double def =
        measure_mapping(sim, dm.map_all(app.graph, machine), 31, 1);
    const SearchResult res = automap_optimize(
        sim, SearchAlgorithm::kCcd, {.rotations = 5, .repeats = 7,
                                     .seed = 42});
    return def / measure_mapping(sim, res.best, 31, 2);
  };
  const double small = speedup(0);
  const double large = speedup(7);
  EXPECT_GT(small, 1.4);            // paper: 2.41x at n50w200
  EXPECT_NEAR(large, 1.0, 0.06);    // paper: ~1.0 at n12800w51200
  EXPECT_GT(small, large);
}

/// Fig. 8: on over-capacity inputs AutoMap beats the all-Zero-Copy
/// fallback by a large factor (paper: at least 4x).
TEST(Integration, MemoryConstrainedSearchBeatsAllZeroCopy) {
  const MachineModel machine = make_shepard(1);
  PennantConfig config;
  config.zones_y =
      (pennant_max_fb_zones_y(machine.mem_capacity(MemKind::kFrameBuffer), 1,
                              1) *
       107) /
      100;
  const BenchmarkApp app = make_pennant(config);
  Simulator sim(machine, app.graph, app.sim);

  Mapping all_zc(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    all_zc.at(t.id).proc =
        t.cost.has_gpu_variant() ? ProcKind::kGpu : ProcKind::kCpu;
    std::ranges::fill(all_zc.memories(t.id), MemPriority{MemKind::kZeroCopy});
  }
  const double zc = measure_mapping(sim, all_zc, 15, 1);

  const SearchResult res = automap_optimize(
      sim, SearchAlgorithm::kCcd,
      {.rotations = 5, .repeats = 7, .seed = 42, .memory_fallbacks = true});
  // The winner carries the priority lists it was measured with.
  const double am = measure_mapping(sim, res.best, 15, 2);
  EXPECT_GT(zc / am, 4.0);
}

/// Fig. 7: AutoMap's Maestro mapping disturbs the high-fidelity sample no
/// more than the better of the two fixed strategies.
TEST(Integration, MaestroAutoMapMatchesOrBeatsFixedStrategies) {
  const MachineModel machine = make_shepard(1);
  MaestroConfig config;
  config.num_lf_samples = 32;
  config.lf_resolution = 32;
  const BenchmarkApp app = make_maestro(config);
  Simulator sim(machine, app.graph, app.sim);

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
    return measure_mapping(sim, m, 15, 1);
  };
  const double cpu_sys = strategy(ProcKind::kCpu, MemKind::kSystem);
  const double gpu_zc = strategy(ProcKind::kGpu, MemKind::kZeroCopy);

  const SearchResult res = automap_optimize(
      sim, SearchAlgorithm::kCcd, {.rotations = 5, .repeats = 7, .seed = 42});
  const double am = measure_mapping(sim, res.best, 15, 2);
  EXPECT_LE(am, std::min(cpu_sys, gpu_zc) * 1.03);
}

/// §5.3: CCD finds mappings at least as fast as CD and the ensemble tuner
/// under the same budget, and the tuner evaluates a small fraction of what
/// it suggests.
TEST(Integration, CcdDominatesOtherAlgorithmsUnderEqualBudget) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_htr(htr_config_for(1, 0));
  Simulator sim(machine, app.graph, app.sim);

  const SearchResult ccd = automap_optimize(
      sim, SearchAlgorithm::kCcd, {.rotations = 5, .repeats = 7, .seed = 42});
  const SearchOptions budgeted{.rotations = 5, .repeats = 7,
                               .time_budget_s = ccd.stats.search_time_s,
                               .seed = 42};
  const SearchResult cd =
      automap_optimize(sim, SearchAlgorithm::kCd, budgeted);
  const SearchResult ot =
      automap_optimize(sim, SearchAlgorithm::kEnsembleTuner, budgeted);

  EXPECT_LE(ccd.best_seconds, cd.best_seconds * 1.02);
  EXPECT_LE(ccd.best_seconds, ot.best_seconds * 1.02);
  EXPECT_GT(ot.stats.suggested, 2 * ot.stats.evaluated);
  EXPECT_GT(ccd.stats.evaluation_fraction(), 0.95);
  EXPECT_LT(ot.stats.evaluation_fraction(), 0.7);
}

/// The custom mappers behave like the paper's §5 baselines: valid
/// everywhere and close to (sometimes below) the default.
TEST(Integration, CustomMappersAreValidBaselines) {
  const MachineModel machine = make_shepard(2);
  DefaultMapper dm;
  for (const BenchmarkApp& app :
       {make_circuit(circuit_config_for(2, 4)),
        make_pennant(pennant_config_for(2, 1)),
        make_htr(htr_config_for(2, 1))}) {
    const auto custom = make_custom_mapper(app.name);
    const Mapping m = custom->map_all(app.graph, machine);
    EXPECT_TRUE(m.valid(app.graph, machine)) << app.name;
    Simulator sim(machine, app.graph, app.sim);
    const double c = measure_mapping(sim, m, 15, 1);
    const double d = measure_mapping(sim, dm.map_all(app.graph, machine),
                                     15, 1);
    EXPECT_LT(c, d * 1.25) << app.name;
    EXPECT_GT(c, d * 0.5) << app.name;
  }
  EXPECT_THROW(make_custom_mapper("unknown-app"), Error);
}

}  // namespace
}  // namespace automap
