// Fuzz-style property tests over randomly generated task graphs: whatever
// the generator produces, the whole pipeline (validate -> serialize ->
// parse -> simulate -> search) must hold its invariants.

#include <gtest/gtest.h>

#include <cmath>

#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"
#include "tests/random_graph.hpp"

namespace automap {
namespace {

class FuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

TEST_P(FuzzProperty, GraphSurvivesSerializationRoundTrip) {
  Rng rng(GetParam());
  const TaskGraph g = random_graph(rng);
  const TaskGraph parsed = task_graph_from_string(task_graph_to_string(g));
  EXPECT_EQ(parsed.num_tasks(), g.num_tasks());
  EXPECT_EQ(parsed.num_collection_args(), g.num_collection_args());
  EXPECT_EQ(parsed.num_edges(), g.num_edges());
  EXPECT_EQ(parsed.build_overlap_graph().size(),
            g.build_overlap_graph().size());
}

TEST_P(FuzzProperty, DefaultMappingExecutesOrOoms) {
  Rng rng(GetParam());
  const TaskGraph g = random_graph(rng);
  const MachineModel machine = make_shepard(2);
  Simulator sim(machine, g, {.iterations = 3, .noise_sigma = 0.05});
  DefaultMapper dm;
  const auto report = sim.run(dm.map_all(g, machine), GetParam());
  if (report.ok) {
    EXPECT_GT(report.total_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(report.total_seconds));
    EXPECT_GE(report.energy_joules, 0.0);
  } else {
    EXPECT_NE(report.failure.find("out of memory"), std::string::npos);
  }
}

TEST_P(FuzzProperty, CcdProducesValidResultsOnArbitraryGraphs) {
  Rng rng(GetParam());
  const TaskGraph g = random_graph(rng);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 2, .noise_sigma = 0.02});
  const SearchResult res =
      run_ccd(sim, {.rotations = 2, .repeats = 2, .seed = GetParam()});
  EXPECT_TRUE(res.best.valid(g, machine));
  EXPECT_TRUE(std::isfinite(res.best_seconds));
  EXPECT_GT(res.stats.evaluated, 0u);
}

TEST_P(FuzzProperty, CcdUnderFaultInjectionStaysValidAndThreadInvariant) {
  Rng rng(GetParam());
  const TaskGraph g = random_graph(rng);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g,
                {.iterations = 2, .noise_sigma = 0.02,
                 .faults = {.crash_prob = 0.05,
                            .straggler_prob = 0.05,
                            .straggler_factor = 3.0,
                            .mem_pressure_prob = 0.02,
                            .copy_fault_prob = 0.02}});
  SearchOptions options{.rotations = 2, .repeats = 2, .seed = GetParam()};
  options.resilience = {.max_retries = 2, .quarantine_after = 2};
  const SearchResult res = run_ccd(sim, options);
  // Whatever the fault draws did, the search either finished with a valid
  // finalist or degraded gracefully to a best-known incumbent — it must
  // never throw or return an unusable mapping.
  EXPECT_TRUE(res.best.valid(g, machine));
  if (!res.stats.degraded) {
    EXPECT_TRUE(std::isfinite(res.best_seconds));
  }
}

TEST_P(FuzzProperty, SimulationIsMonotoneInIterations) {
  Rng rng(GetParam());
  const TaskGraph g = random_graph(rng);
  const MachineModel machine = make_shepard(1);
  DefaultMapper dm;
  const Mapping m = dm.map_all(g, machine);
  Simulator two(machine, g, {.iterations = 2, .noise_sigma = 0.0});
  Simulator four(machine, g, {.iterations = 4, .noise_sigma = 0.0});
  const auto r2 = two.run(m, 1);
  const auto r4 = four.run(m, 1);
  if (r2.ok && r4.ok) {
    EXPECT_GT(r4.total_seconds, r2.total_seconds);
  }
}

}  // namespace
}  // namespace automap
