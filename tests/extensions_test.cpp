// Tests for the extension features beyond the paper's core: the energy
// objective (§3.3), distribution-strategy search (the paper's stated future
// work) and the inspector-executor online mode (§6).

#include <gtest/gtest.h>

#include "src/apps/circuit.hpp"
#include "src/apps/stencil.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/mappers/custom_mappers.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/algorithms.hpp"
#include "src/sim/simulator.hpp"

namespace automap {
namespace {

// --- energy objective ------------------------------------------------------

TEST(Energy, ReportsPositiveEnergyAndScalesWithWork) {
  const MachineModel machine = make_shepard(1);
  DefaultMapper dm;
  const BenchmarkApp small = make_circuit(circuit_config_for(1, 1));
  const BenchmarkApp large = make_circuit(circuit_config_for(1, 7));
  Simulator sim_small(machine, small.graph,
                      {.iterations = 3, .noise_sigma = 0.0});
  Simulator sim_large(machine, large.graph,
                      {.iterations = 3, .noise_sigma = 0.0});
  const auto rs = sim_small.run(dm.map_all(small.graph, machine), 1);
  const auto rl = sim_large.run(dm.map_all(large.graph, machine), 1);
  ASSERT_TRUE(rs.ok);
  ASSERT_TRUE(rl.ok);
  EXPECT_GT(rs.energy_joules, 0.0);
  EXPECT_GT(rl.energy_joules, rs.energy_joules);
}

TEST(Energy, GpuMappingsDrawMorePowerThanCpuForEqualWork) {
  // On a small input (where times are comparable), the 250 W GPU burns more
  // energy per launch-bound task than a handful of 6 W cores.
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  DefaultMapper dm;
  const auto gpu = sim.run(dm.map_all(app.graph, machine), 1);
  Mapping cpu_mapping(app.graph);
  for (const GroupTask& t : app.graph.tasks()) {
    cpu_mapping.at(t.id).proc = ProcKind::kCpu;
    std::ranges::fill(cpu_mapping.memories(t.id),
                      MemPriority{MemKind::kSystem});
  }
  const auto cpu = sim.run(cpu_mapping, 1);
  ASSERT_TRUE(gpu.ok);
  ASSERT_TRUE(cpu.ok);
  EXPECT_GT(gpu.energy_joules, cpu.energy_joules);
}

TEST(Energy, SearchWithEnergyObjectiveMinimizesEnergy) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 2));
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});

  const SearchResult time_result = automap_optimize(
      sim, SearchAlgorithm::kCcd, {.rotations = 3, .repeats = 5, .seed = 9});
  const SearchResult energy_result = automap_optimize(
      sim, SearchAlgorithm::kCcd,
      {.rotations = 3, .repeats = 5, .seed = 9,
       .objective = Objective::kEnergy});

  Simulator quiet(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  const double e_time = quiet.run(time_result.best, 0).energy_joules;
  const double e_energy = quiet.run(energy_result.best, 0).energy_joules;
  EXPECT_LE(e_energy, e_time * 1.02);
  EXPECT_TRUE(energy_result.best.valid(app.graph, machine));
}

// --- distribution-strategy search ------------------------------------------

TEST(DistributionSearch, ClosesTheBlockedDecompositionGap) {
  // On multi-node Circuit the blocked custom mapper keeps ghost exchanges
  // local. With the extension enabled, CCD can propose blocked
  // decompositions itself and must match or beat the custom mapper.
  const MachineModel machine = make_shepard(4);
  const BenchmarkApp app = make_circuit(circuit_config_for(4, 3));
  Simulator sim(machine, app.graph, app.sim);

  const auto custom = make_custom_mapper("circuit");
  const double custom_s =
      measure_mapping(sim, custom->map_all(app.graph, machine), 15, 1);

  // Whether the greedy descent adopts the blocked candidate on this
  // instance depends on the evaluation-noise draws, i.e. on the seed: the
  // blocked and distributed optima are within a few percent of each other
  // here. So every seed must match the custom mapper, and most seeds must
  // adopt a blocked decomposition.
  int adopted = 0;
  constexpr int kSeeds = 10;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const SearchResult extended = automap_optimize(
        sim, SearchAlgorithm::kCcd,
        {.rotations = 5, .repeats = 7, .seed = seed,
         .search_distribution_strategies = true});
    const double am_s = measure_mapping(sim, extended.best, 15, 2);
    EXPECT_LE(am_s, custom_s * 1.03) << "seed " << seed;

    bool any_blocked = false;
    for (const GroupTask& t : app.graph.tasks())
      if (extended.best.at(t.id).blocked) any_blocked = true;
    adopted += any_blocked;
  }
  EXPECT_GT(adopted, kSeeds / 2);
}

TEST(DistributionSearch, DisabledByDefaultNeverProposesBlocked) {
  const MachineModel machine = make_shepard(2);
  const BenchmarkApp app = make_circuit(circuit_config_for(2, 2));
  Simulator sim(machine, app.graph, app.sim);
  const SearchResult plain = automap_optimize(
      sim, SearchAlgorithm::kCcd, {.rotations = 3, .repeats = 5, .seed = 1});
  for (const GroupTask& t : app.graph.tasks())
    EXPECT_FALSE(plain.best.at(t.id).blocked);
}

// --- §3.3 subset search (frozen tasks) --------------------------------------

TEST(SubsetSearch, FrozenTasksKeepTheirStartingMapping) {
  // Freeze the first task. At these input sizes an unconstrained search
  // moves its decisions or its memory lists, so the pin is observable.
  const MachineModel machine = make_shepard(1);
  for (const BenchmarkApp& app : {make_circuit(circuit_config_for(1, 0)),
                                  make_stencil(stencil_config_for(1, 0))}) {
    Simulator sim(machine, app.graph, app.sim);
    SearchOptions options{.rotations = 3, .repeats = 5, .seed = 7};
    options.frozen_tasks = {TaskId(0)};
    const Mapping start = search_starting_point(app.graph, machine);

    for (const SearchAlgorithmInfo& algorithm : search_algorithms()) {
      SearchOptions o = options;
      // The open-ended algorithms run to a simulated budget; multistart's
      // random starts run inside it too.
      for (const char* budgeted : {"ot", "random", "anneal", "multistart"})
        if (algorithm.name == budgeted) o.time_budget_s = 20.0;
      const SearchResult r = algorithm.run(sim, o);
      const std::string what = app.name + " " + algorithm.name;
      EXPECT_EQ(r.best.at(TaskId(0)), start.at(TaskId(0))) << what;
      EXPECT_TRUE(std::ranges::equal(r.best.memories(TaskId(0)),
                                     start.memories(TaskId(0))))
          << what;
      EXPECT_TRUE(r.best.valid(app.graph, machine)) << what;
    }
  }
}

TEST(SubsetSearch, UnfrozenSearchStillImproves) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  Simulator sim(machine, app.graph, app.sim);
  SearchOptions options{.rotations = 3, .repeats = 5, .seed = 7};
  options.frozen_tasks = {TaskId(0)};
  const SearchResult frozen = automap_optimize(sim, SearchAlgorithm::kCcd,
                                               options);
  Simulator quiet(machine, app.graph, {.iterations = 10, .noise_sigma = 0.0});
  const double start =
      quiet.run(search_starting_point(app.graph, machine), 0).total_seconds;
  EXPECT_LT(quiet.run(frozen.best, 0).total_seconds, start);
}

TEST(SubsetSearch, RejectsOutOfRangeFrozenIds) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  Simulator sim(machine, app.graph, app.sim);
  SearchOptions options{.rotations = 2, .repeats = 2};
  options.frozen_tasks = {TaskId(99)};
  EXPECT_THROW((void)automap_optimize(sim, SearchAlgorithm::kCcd, options),
               Error);
}

// --- inspector-executor ------------------------------------------------------

TEST(Online, LongRunsAmortizeTheSearch) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 10, .noise_sigma = 0.02});

  const OnlineResult result = automap_online(
      sim, {.total_iterations = 2000000,
            .search = {.rotations = 3, .repeats = 3, .seed = 42}});
  // At the smallest Circuit input AutoMap finds ~1.8x; over a 2M-iteration
  // production run the search window is noise, so most of it survives.
  EXPECT_GT(result.speedup(), 1.3);
  EXPECT_GT(result.search_iterations, 0);
  EXPECT_LT(result.search_iterations, 2000000);
}

TEST(Online, ShortRunsAreRejected) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_circuit(circuit_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 10, .noise_sigma = 0.02});
  EXPECT_THROW(
      (void)automap_online(
          sim, {.total_iterations = 100,
                .search = {.rotations = 3, .repeats = 3, .seed = 42}}),
      Error);
}

}  // namespace
}  // namespace automap
