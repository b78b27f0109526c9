// Property-based tests (parameterized gtest): invariants that must hold
// across random mappings, seeds and all benchmark applications.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/apps/circuit.hpp"
#include "src/apps/htr.hpp"
#include "src/apps/maestro.hpp"
#include "src/apps/pennant.hpp"
#include "src/apps/stencil.hpp"
#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"

namespace automap {
namespace {

BenchmarkApp make_app(const std::string& name, int nodes = 1, int step = 1) {
  if (name == "circuit") return make_circuit(circuit_config_for(nodes, step));
  if (name == "stencil") return make_stencil(stencil_config_for(nodes, step));
  if (name == "pennant") return make_pennant(pennant_config_for(nodes, step));
  if (name == "htr") return make_htr(htr_config_for(nodes, step));
  MaestroConfig c;
  c.num_lf_samples = 16;
  c.num_nodes = nodes;
  return make_maestro(c);
}

/// Random *valid* mapping: picks a processor with a variant, then memories
/// addressable from it.
Mapping random_valid_mapping(const TaskGraph& g, const MachineModel& m,
                             Rng& rng) {
  Mapping mapping(g);
  for (const GroupTask& t : g.tasks()) {
    TaskMapping& tm = mapping.at(t.id);
    tm.distribute = rng.bernoulli(0.5);
    tm.blocked = tm.distribute && rng.bernoulli(0.3);
    tm.proc = (t.cost.has_gpu_variant() && rng.bernoulli(0.5))
                  ? ProcKind::kGpu
                  : ProcKind::kCpu;
    const auto mems = m.memories_addressable_by(tm.proc);
    for (auto& priority : mapping.memories(t.id))
      priority = {mems[rng.uniform_index(mems.size())]};
  }
  return mapping;
}

// ---------------------------------------------------------------------------
// Per-seed properties.

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST_P(SeededProperty, MappingSerializeParseRoundTrip) {
  const BenchmarkApp app = make_app("pennant");
  const MachineModel machine = make_shepard(2);
  Rng rng(GetParam());
  const Mapping m = random_valid_mapping(app.graph, machine, rng);
  const Mapping parsed = Mapping::parse(m.serialize(), app.graph);
  EXPECT_EQ(parsed, m);
  EXPECT_EQ(parsed.hash(), m.hash());
}

TEST_P(SeededProperty, RandomValidMappingsAreExecutable) {
  const BenchmarkApp app = make_app("htr");
  const MachineModel machine = make_shepard(2);
  Rng rng(GetParam());
  const Mapping m = random_valid_mapping(app.graph, machine, rng);
  ASSERT_TRUE(m.valid(app.graph, machine));
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  const auto report = sim.run(m, GetParam());
  // Valid mappings either execute or fail only with OOM — never crash or
  // report an invalid-mapping failure.
  if (!report.ok)
    EXPECT_NE(report.failure.find("out of memory"), std::string::npos);
  else
    EXPECT_GT(report.total_seconds, 0.0);
}

TEST_P(SeededProperty, SimulatorIsDeterministicPerSeed) {
  const BenchmarkApp app = make_app("circuit");
  const MachineModel machine = make_shepard(2);
  Rng rng(GetParam());
  const Mapping m = random_valid_mapping(app.graph, machine, rng);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.1});
  const auto a = sim.run(m, GetParam());
  const auto b = sim.run(m, GetParam());
  ASSERT_EQ(a.ok, b.ok);
  if (a.ok) {
    EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  }
}

TEST_P(SeededProperty, ColocationAlwaysYieldsValidMappings) {
  const BenchmarkApp app = make_app("pennant");
  const MachineModel machine = make_shepard(1);
  const TaskGraph& g = app.graph;

  std::vector<OverlapEdge> edges = g.build_overlap_graph();
  for (const Collection& c : g.collections())
    edges.push_back({c.id, c.id, g.collection_bytes(c.id)});
  const auto overlap = detail::build_overlap_map(g, edges);

  Rng rng(GetParam());
  Mapping f = random_valid_mapping(g, machine, rng);
  // Random primary move, then the Algorithm 2 fixed point.
  const TaskId t(rng.uniform_index(g.num_tasks()));
  const GroupTask& task = g.task(t);
  if (task.args.empty()) return;
  const std::size_t arg = rng.uniform_index(task.args.size());
  const ProcKind k = (task.cost.has_gpu_variant() && rng.bernoulli(0.5))
                         ? ProcKind::kGpu
                         : ProcKind::kCpu;
  const auto mems = machine.memories_addressable_by(k);
  const MemKind r = mems[rng.uniform_index(mems.size())];
  f.at(t).proc = k;
  f.set_primary_memory(t, arg, r);

  const Mapping fp =
      detail::colocation_constraints(f, t, arg, k, r, overlap, g, machine);

  // Constraint 1 globally: the fixed point repaired every violation…
  EXPECT_TRUE(fp.valid(g, machine)) << fp.violations(g, machine).front();
  // …and constraint 2 for the primary argument's co-location class: every
  // argument overlapping (t, arg) ended on the same memory kind.
  for (const detail::ArgRef& ref : overlap[g.arg_offsets()[t.index()] + arg]) {
    EXPECT_EQ(fp.primary_memory(ref.task, ref.arg), r);
  }
  // The primary decision itself was preserved.
  EXPECT_EQ(fp.at(t).proc, k);
  EXPECT_EQ(fp.primary_memory(t, arg), r);
}

TEST_P(SeededProperty, NoiseAveragesToNoiselessTime) {
  const BenchmarkApp app = make_app("stencil");
  const MachineModel machine = make_shepard(1);
  Simulator noisy(machine, app.graph, {.iterations = 2, .noise_sigma = 0.1});
  Simulator quiet(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  DefaultMapper dm;
  const Mapping m = dm.map_all(app.graph, machine);
  const double truth = quiet.run(m, 0).total_seconds;
  const double mean = measure_mapping(noisy, m, 31, GetParam());
  EXPECT_NEAR(mean, truth, 0.15 * truth);
}

// ---------------------------------------------------------------------------
// Per-application properties.

class AppProperty : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Apps, AppProperty,
                         ::testing::Values("circuit", "stencil", "pennant",
                                           "htr", "maestro"));

TEST_P(AppProperty, OverlapGraphIsCanonical) {
  const BenchmarkApp app = make_app(GetParam());
  const auto edges = app.graph.build_overlap_graph();
  for (const auto& e : edges) {
    EXPECT_LT(e.a, e.b);  // listed once, ordered
    EXPECT_GT(e.weight_bytes, 0u);
    EXPECT_EQ(app.graph.overlap_bytes(e.a, e.b), e.weight_bytes);
    EXPECT_EQ(app.graph.overlap_bytes(e.b, e.a), e.weight_bytes);
  }
}

TEST_P(AppProperty, EveryEdgeReferencesArgumentsOfItsTasks) {
  const BenchmarkApp app = make_app(GetParam());
  for (const DependenceEdge& e : app.graph.edges()) {
    auto uses = [&](TaskId t, CollectionId c) {
      for (const CollectionUse& u : app.graph.task(t).args)
        if (u.collection == c) return true;
      return false;
    };
    EXPECT_TRUE(uses(e.producer, e.producer_collection));
    EXPECT_TRUE(uses(e.consumer, e.consumer_collection));
  }
}

TEST_P(AppProperty, DataEdgesComeFromWriters) {
  const BenchmarkApp app = make_app(GetParam());
  for (const DependenceEdge& e : app.graph.edges()) {
    if (!e.carries_data) continue;
    bool writer_found = false;
    for (const CollectionUse& u : app.graph.task(e.producer).args)
      if (u.collection == e.producer_collection && writes(u.privilege))
        writer_found = true;
    EXPECT_TRUE(writer_found);
  }
}

TEST_P(AppProperty, StartingPointIsValidAndExecutable) {
  const BenchmarkApp app = make_app(GetParam(), 2, 1);
  const MachineModel machine = make_shepard(2);
  const Mapping start = search_starting_point(app.graph, machine);
  ASSERT_TRUE(start.valid(app.graph, machine));
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  EXPECT_TRUE(sim.run(start, 1).ok);
}

TEST_P(AppProperty, WeakScalingSeriesKeepsDefaultTimeBounded) {
  // Weak scaling: along each series the default-mapped time per node count
  // grows with the input but stays within sane bounds (no runaway or
  // degenerate graphs).
  const std::string name = GetParam();
  if (name == "maestro") return;  // maestro is not weak-scaled by step
  const MachineModel machine = make_shepard(2);
  DefaultMapper dm;
  double prev = 0.0;
  for (int step = 0; step < 3; ++step) {
    const BenchmarkApp app = make_app(name, 2, step);
    Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
    const auto r = sim.run(dm.map_all(app.graph, machine), 1);
    ASSERT_TRUE(r.ok) << app.input;
    EXPECT_GE(r.total_seconds, prev * 0.9) << app.input;
    prev = r.total_seconds;
  }
}

TEST_P(AppProperty, LeaderOnlyMappingIsSlowerOrEqualOnMultipleNodes) {
  const std::string name = GetParam();
  const BenchmarkApp app = make_app(name, 4, 2);
  const MachineModel machine = make_shepard(4);
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  const Mapping dist = search_starting_point(app.graph, machine);
  Mapping leader = dist;
  for (const GroupTask& t : app.graph.tasks())
    leader.at(t.id).distribute = false;
  const auto rd = sim.run(dist, 1);
  const auto rl = sim.run(leader, 1);
  ASSERT_TRUE(rd.ok);
  if (rl.ok) {
    EXPECT_GE(rl.total_seconds, rd.total_seconds * 0.95);
  }
}

// ---------------------------------------------------------------------------
// Per-(app x algorithm) search properties.

using SearchCase = std::tuple<std::string, SearchAlgorithm>;
class SearchProperty : public ::testing::TestWithParam<SearchCase> {};

INSTANTIATE_TEST_SUITE_P(
    Searches, SearchProperty,
    ::testing::Combine(::testing::Values("circuit", "stencil"),
                       ::testing::Values(SearchAlgorithm::kCcd,
                                         SearchAlgorithm::kCd,
                                         SearchAlgorithm::kEnsembleTuner)));

TEST_P(SearchProperty, ResultIsValidAndBeatsOrMatchesStartingPoint) {
  const auto& [name, algorithm] = GetParam();
  const BenchmarkApp app = make_app(name, 1, 1);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02});

  SearchOptions options{.rotations = 3, .repeats = 5, .seed = 7};
  if (algorithm == SearchAlgorithm::kEnsembleTuner) options.time_budget_s = 20.0;
  const SearchResult result = automap_optimize(sim, algorithm, options);

  EXPECT_TRUE(result.best.valid(app.graph, machine));
  Simulator quiet(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  const double start =
      quiet.run(search_starting_point(app.graph, machine), 0).total_seconds;
  const double found = quiet.run(result.best, 0).total_seconds;
  EXPECT_LE(found, start * 1.02) << result.algorithm;
  // Trajectory is monotone non-increasing in best time.
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i].best_exec_s,
              result.trajectory[i - 1].best_exec_s);
    EXPECT_GE(result.trajectory[i].search_time_s,
              result.trajectory[i - 1].search_time_s);
  }
}

}  // namespace
}  // namespace automap
