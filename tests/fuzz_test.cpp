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

namespace automap {
namespace {

/// Random but well-formed task graph: a few regions, collections with
/// plausible overlaps, tasks in a chainable order, RAW edges from earlier
/// writers and a loop-carried back edge.
TaskGraph random_graph(Rng& rng) {
  TaskGraph g;
  const int num_regions = 1 + static_cast<int>(rng.uniform_index(3));
  std::vector<RegionId> regions;
  std::vector<CollectionId> collections;
  for (int r = 0; r < num_regions; ++r) {
    const std::int64_t extent = 1000 + rng.uniform_index(100000);
    const RegionId region = g.add_region(
        "region" + std::to_string(r), Rect::line(0, extent - 1),
        8 << rng.uniform_index(4));
    regions.push_back(region);
    const int num_cols = 1 + static_cast<int>(rng.uniform_index(4));
    for (int c = 0; c < num_cols; ++c) {
      // Random sub-range; later collections may overlap earlier ones.
      const std::int64_t lo = rng.uniform_index(extent);
      const std::int64_t hi =
          lo + rng.uniform_index(static_cast<std::uint64_t>(extent - lo));
      collections.push_back(g.add_collection(
          region, "col_r" + std::to_string(r) + "_" + std::to_string(c),
          Rect::line(lo, hi)));
    }
  }

  const int num_tasks = 2 + static_cast<int>(rng.uniform_index(8));
  std::vector<TaskId> tasks;
  for (int t = 0; t < num_tasks; ++t) {
    std::vector<CollectionUse> args;
    const int num_args = 1 + static_cast<int>(rng.uniform_index(4));
    for (int a = 0; a < num_args; ++a) {
      const Privilege priv =
          std::array{Privilege::kReadOnly, Privilege::kWriteOnly,
                     Privilege::kReadWrite, Privilege::kReduce}
              [rng.uniform_index(4)];
      args.push_back({collections[rng.uniform_index(collections.size())],
                      priv, 0.1 + 0.9 * rng.uniform()});
    }
    TaskCost cost{.cpu_seconds_per_point = rng.uniform(1e-6, 1e-3)};
    if (rng.bernoulli(0.8))
      cost.gpu_seconds_per_point = cost.cpu_seconds_per_point / 50.0;
    tasks.push_back(g.add_task("task" + std::to_string(t),
                               1 + static_cast<int>(rng.uniform_index(16)),
                               cost, std::move(args)));
  }

  // RAW edges: forward in task order only (acyclic), through overlapping
  // collection pairs actually used by the endpoint tasks.
  for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const GroupTask& prod = g.task(tasks[i]);
      const GroupTask& cons = g.task(tasks[j]);
      const CollectionUse& pu = prod.args[rng.uniform_index(prod.args.size())];
      const CollectionUse& cu = cons.args[rng.uniform_index(cons.args.size())];
      const std::uint64_t overlap =
          g.overlap_bytes(pu.collection, cu.collection);
      if (overlap == 0) continue;
      g.add_dependence({.producer = tasks[i],
                        .consumer = tasks[j],
                        .producer_collection = pu.collection,
                        .consumer_collection = cu.collection,
                        .bytes = overlap,
                        .cross_iteration = rng.bernoulli(0.2),
                        .internode_fraction =
                            pu.collection == cu.collection ? 0.0 : 1.0});
    }
  }
  g.validate();
  return g;
}

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
