// Tests for the additional pluggable search algorithms: random search,
// simulated annealing, the HEFT-style static baseline and multi-start CCD.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/apps/circuit.hpp"
#include "src/apps/registry.hpp"
#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/extra_algorithms.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

class ExtraAlgorithms : public ::testing::Test {
 protected:
  ExtraAlgorithms()
      : app(make_circuit(circuit_config_for(1, 1))),
        machine(make_shepard(1)),
        sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.02}) {}

  BenchmarkApp app;
  MachineModel machine;
  Simulator sim;
  SearchOptions budgeted{.repeats = 3, .time_budget_s = 10.0, .seed = 11};
};

TEST_F(ExtraAlgorithms, RandomSearchFindsValidMappings) {
  const SearchResult r = run_random_search(sim, budgeted);
  EXPECT_EQ(r.algorithm, "AM-Random");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  EXPECT_GT(r.stats.evaluated, 10u);
  // All proposals are constructed valid: no constraint-1 rejections.
  EXPECT_EQ(r.stats.invalid, 0u);
}

TEST_F(ExtraAlgorithms, AnnealingImprovesOnStartingPoint) {
  const SearchResult r = run_simulated_annealing(sim, budgeted);
  EXPECT_EQ(r.algorithm, "AM-Anneal");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  Simulator quiet(machine, app.graph, {.iterations = 3, .noise_sigma = 0.0});
  const double start =
      quiet.run(search_starting_point(app.graph, machine), 0).total_seconds;
  EXPECT_LE(quiet.run(r.best, 0).total_seconds, start * 1.02);
}

TEST_F(ExtraAlgorithms, HeftPicksFastProcessorsStatistically) {
  const SearchResult r = run_heft_static(sim, budgeted);
  EXPECT_EQ(r.algorithm, "HEFT-static");
  EXPECT_TRUE(r.best.valid(app.graph, machine));
  // HEFT evaluates exactly one mapping (it does not search).
  EXPECT_EQ(r.stats.evaluated, 1u);
  // Every collection lands in the chosen processor's best memory — the
  // single-memory-per-processor assumption of §6.
  for (const GroupTask& t : app.graph.tasks()) {
    const TaskMapping& tm = r.best.at(t.id);
    for (std::size_t a = 0; a < t.args.size(); ++a) {
      EXPECT_EQ(r.best.primary_memory(t.id, a),
                machine.best_memory_for(tm.proc));
    }
  }
}

TEST_F(ExtraAlgorithms, HeftSimulatesOnlyItsStartAndFinalist) {
  // HEFT evaluates with an infinite threshold only, so the mean's censor
  // line is never raced and never measured: the 7 runs of its one mapping
  // and the 31 finalist reruns are every run, over two plans.
  const BenchmarkApp htr = make_app_by_name("htr", 2, 0);
  const MachineModel shepard2 = make_shepard(2);
  MetricsRegistry metrics;
  const Simulator counted(shepard2, htr.graph, {.metrics = &metrics});
  (void)run_heft_static(counted, {.seed = 42});
  EXPECT_EQ(metrics.counter("automap_sim_runs_total", "")->value(), 38u);
  EXPECT_EQ(metrics.counter("automap_sim_plans_total", "")->value(), 2u);
}

TEST_F(ExtraAlgorithms, CcdBeatsTheBaselinesOnSmallInputs) {
  // The central comparison: joint task+data search beats both pure random
  // exploration and static scheduling on the launch-bound small input.
  const SearchResult ccd =
      run_ccd(sim, {.rotations = 3, .repeats = 3, .seed = 11});
  const SearchOptions same_budget{.repeats = 3,
                                  .time_budget_s = ccd.stats.search_time_s,
                                  .seed = 11};
  const SearchResult heft = run_heft_static(sim, same_budget);
  const SearchResult random = run_random_search(sim, same_budget);
  EXPECT_LE(ccd.best_seconds, heft.best_seconds * 1.02);
  EXPECT_LE(ccd.best_seconds, random.best_seconds * 1.05);
}

TEST_F(ExtraAlgorithms, MultistartNeverWorseThanSingleStart) {
  const SearchOptions unbudgeted{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult single = run_ccd(sim, unbudgeted);
  const SearchResult multi = run_ccd_multistart(sim, unbudgeted);
  EXPECT_EQ(multi.algorithm, "AM-CCD-multistart");
  EXPECT_TRUE(multi.best.valid(app.graph, machine));
  // The first descent is the single-start search, and the one finalist
  // protocol ranks every descent's finalists, so it cannot be
  // meaningfully worse.
  EXPECT_LE(multi.best_seconds, single.best_seconds * 1.05);
  EXPECT_GT(multi.stats.suggested, single.stats.suggested);
}

TEST_F(ExtraAlgorithms, MultistartCountsEveryPass) {
  // Every proposal is executed, rejected as invalid or answered from the
  // profiles database, in every descent; and each descent reports its
  // rotations.
  const SearchOptions options{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult single = run_ccd(sim, options);
  const SearchResult multi = run_ccd_multistart(sim, options);
  for (const SearchStats* s : {&single.stats, &multi.stats})
    EXPECT_EQ(s->suggested, s->evaluated + s->invalid + s->cache_hits);
  EXPECT_EQ(multi.stats.rotations.size(), 3 * single.stats.rotations.size());
  EXPECT_GE(multi.stats.censored, single.stats.censored);
}

TEST_F(ExtraAlgorithms, MultistartTelemetryReadsAsOneSearch) {
  // Each later descent continues the rotation numbering, the evaluated
  // count and the clock of the descents before it.
  const SearchOptions options{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult multi = run_ccd_multistart(sim, options);
  const std::vector<RotationTelemetry>& rotations = multi.stats.rotations;
  ASSERT_EQ(rotations.size(), 9u);
  for (std::size_t i = 0; i < rotations.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(rotations[i].rotation, static_cast<int>(i));
    if (i == 0) continue;
    EXPECT_GE(rotations[i].evaluated, rotations[i - 1].evaluated);
    EXPECT_GE(rotations[i].search_time_s, rotations[i - 1].search_time_s);
  }
  EXPECT_LE(rotations.back().evaluated, multi.stats.evaluated);
  EXPECT_LE(rotations.back().search_time_s, multi.stats.search_time_s);
  const std::string telemetry = render_search_telemetry(multi);
  EXPECT_NE(telemetry.find("    #8: "), std::string::npos) << telemetry;
}

TEST_F(ExtraAlgorithms, MultistartRespectsBudget) {
  SearchOptions capped{.rotations = 3, .repeats = 3, .seed = 11};
  const SearchResult single = run_ccd(sim, capped);
  capped.time_budget_s = single.stats.search_time_s;  // about one descent
  const SearchResult multi = run_ccd_multistart(sim, capped);
  // Later descents were skipped or truncated by the budget.
  EXPECT_LT(multi.stats.search_time_s, 2 * single.stats.search_time_s);
}

TEST_F(ExtraAlgorithms, DeterministicPerSeed) {
  const SearchResult a = run_simulated_annealing(sim, budgeted);
  const SearchResult b = run_simulated_annealing(sim, budgeted);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_seconds, b.best_seconds);
}

}  // namespace
}  // namespace automap
