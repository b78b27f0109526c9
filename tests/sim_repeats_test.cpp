// Tests for Simulator::run_repeats, the multi-seed wrapper over
// run_prepared: every per-seed report must be byte-identical to the
// run_prepared of the same seed, across unbounded, censored and
// fault-injected runs, and neither records events. Also checks that an
// infinite censor threshold folds exactly like one that never binds.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/apps/stencil.hpp"
#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/metrics.hpp"

namespace automap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise double equality: "same value" is not enough — the wrapper must
/// reproduce run_prepared's arithmetic operation for operation.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_report_eq(const ExecutionReport& a, const ExecutionReport& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.transient, b.transient);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(bits(a.total_seconds), bits(b.total_seconds));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.intra_node_copy_bytes, b.intra_node_copy_bytes);
  EXPECT_EQ(a.inter_node_copy_bytes, b.inter_node_copy_bytes);
  EXPECT_EQ(bits(a.energy_joules), bits(b.energy_joules));
  EXPECT_EQ(a.demoted_args, b.demoted_args);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.stragglers, b.faults.stragglers);
  EXPECT_EQ(a.faults.mem_pressure, b.faults.mem_pressure);
  EXPECT_EQ(a.faults.copy_retries, b.faults.copy_retries);
  EXPECT_EQ(bits(a.faults.lost_seconds), bits(b.faults.lost_seconds));

  ASSERT_EQ(a.footprints.size(), b.footprints.size());
  for (std::size_t i = 0; i < a.footprints.size(); ++i) {
    EXPECT_EQ(a.footprints[i].kind, b.footprints[i].kind);
    EXPECT_EQ(a.footprints[i].peak_instance_bytes,
              b.footprints[i].peak_instance_bytes);
    EXPECT_EQ(a.footprints[i].capacity_bytes, b.footprints[i].capacity_bytes);
  }
  // Only Simulator::run records events.
  EXPECT_TRUE(a.trace.empty());
  EXPECT_TRUE(b.trace.empty());
}

std::vector<std::uint64_t> test_seeds(int n) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < n; ++i)
    seeds.push_back(0xc0ffee00ULL + 7919ULL * static_cast<std::uint64_t>(i));
  return seeds;
}

/// Sequential reference: one run_prepared per seed, reports deep-copied.
std::vector<ExecutionReport> sequential_runs(
    const Simulator& sim, const Mapping& m,
    const std::vector<std::uint64_t>& seeds, double bound) {
  SimScratch scratch;
  EXPECT_TRUE(sim.begin_runs(m, scratch));
  std::vector<ExecutionReport> out;
  for (const std::uint64_t s : seeds)
    out.push_back(sim.run_prepared(m, s, scratch, bound));
  return out;
}

void expect_repeats_match_sequential(const Simulator& sim, const Mapping& m,
                                     const std::vector<std::uint64_t>& seeds,
                                     double bound) {
  const std::vector<ExecutionReport> expected =
      sequential_runs(sim, m, seeds, bound);
  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(m, scratch));
  const auto reports = sim.run_repeats(m, seeds, scratch, bound);
  ASSERT_EQ(reports.size(), expected.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("repeat " + std::to_string(i));
    expect_report_eq(reports[i], expected[i]);
  }
}

struct StencilFixture {
  BenchmarkApp app = make_stencil(stencil_config_for(1, 1));
  MachineModel machine = make_shepard(1);
  Mapping mapping = DefaultMapper().map_all(app.graph, machine);
};

// --- run_repeats vs sequential run_prepared --------------------------------

TEST(RunRepeats, MatchesSequentialUnboundedWithTrace) {
  // Neither path records a trace (expect_report_eq checks both are empty).
  StencilFixture f;
  Simulator sim(f.machine, f.app.graph, f.app.sim);
  expect_repeats_match_sequential(sim, f.mapping, test_seeds(6), kInf);
}

TEST(RunRepeats, MatchesSequentialWhenSomeLanesCensor) {
  StencilFixture f;
  Simulator sim(f.machine, f.app.graph, f.app.sim);
  // Pick a bound strictly between the fastest and slowest unbounded totals,
  // so the batch carries a mix of censored and surviving runs.
  const std::vector<std::uint64_t> seeds = test_seeds(8);
  const std::vector<ExecutionReport> unbounded =
      sequential_runs(sim, f.mapping, seeds, kInf);
  double lo = kInf, hi = 0.0;
  for (const ExecutionReport& r : unbounded) {
    lo = std::min(lo, r.total_seconds);
    hi = std::max(hi, r.total_seconds);
  }
  ASSERT_LT(lo, hi) << "noise should spread the totals";
  const double bound = 0.5 * (lo + hi);

  const std::vector<ExecutionReport> expected =
      sequential_runs(sim, f.mapping, seeds, bound);
  int censored = 0;
  for (const ExecutionReport& r : expected) censored += r.censored ? 1 : 0;
  EXPECT_GT(censored, 0);
  EXPECT_LT(censored, static_cast<int>(seeds.size()));

  expect_repeats_match_sequential(sim, f.mapping, seeds, bound);
}

TEST(RunRepeats, MatchesSequentialUnderFaultInjection) {
  StencilFixture f;
  SimOptions opts = f.app.sim;
  opts.faults.crash_prob = 0.004;
  opts.faults.straggler_prob = 0.02;
  opts.faults.copy_fault_prob = 0.01;
  opts.faults.mem_pressure_prob = 0.25;
  Simulator sim(f.machine, f.app.graph, opts);

  const std::vector<std::uint64_t> seeds = test_seeds(24);
  const std::vector<ExecutionReport> expected =
      sequential_runs(sim, f.mapping, seeds, kInf);
  // The probabilities above are tuned so the batch exercises both exits:
  // at least one run crashes mid-run and at least one survives.
  int crashed = 0, survived = 0;
  for (const ExecutionReport& r : expected) {
    crashed += r.transient ? 1 : 0;
    survived += r.ok ? 1 : 0;
  }
  EXPECT_GT(crashed, 0);
  EXPECT_GT(survived, 0);

  expect_repeats_match_sequential(sim, f.mapping, seeds, kInf);
}

TEST(RunRepeats, EmptySeedSpanYieldsEmptySpan) {
  StencilFixture f;
  Simulator sim(f.machine, f.app.graph, f.app.sim);
  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(f.mapping, scratch));
  EXPECT_TRUE(sim.run_repeats(f.mapping, {}, scratch).empty());
}

// --- evaluator repeat fold ------------------------------------------------

TEST(RunRepeats, EvaluatorInfiniteThresholdMatchesNonBindingThreshold) {
  // With kMean and no incumbent the censor threshold is infinite; the
  // cached mean must equal the fold under a finite threshold far above any
  // total, where the racing line is computed but never fires.
  StencilFixture f;
  Simulator sim(f.machine, f.app.graph, f.app.sim);
  SearchOptions o;
  o.repeats = 4;
  o.seed = 9;
  Evaluator eval(sim, o);
  const double mean = eval.evaluate(f.mapping);

  SearchOptions o2 = o;
  o2.prune_candidates = true;
  Evaluator eval2(sim, o2);
  const double mean2 = eval2.evaluate(f.mapping, /*threshold_s=*/1e30);
  EXPECT_EQ(bits(mean), bits(mean2));
}

TEST(RunRepeats, EventsCounterTracksTrueEventCount) {
  StencilFixture f;
  MetricsRegistry metrics;
  SimOptions opts = f.app.sim;
  opts.metrics = &metrics;
  Simulator sim(f.machine, f.app.graph, opts);
  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(f.mapping, scratch));

  const ExecutionReport& one = sim.run_prepared(f.mapping, 1, scratch, kInf);
  // Stencil: 2 task executions per iteration plus its copy legs.
  EXPECT_GE(one.events,
            static_cast<std::uint64_t>(f.app.graph.num_tasks()) *
                static_cast<std::uint64_t>(sim.options().iterations));
  std::uint64_t expected = one.events;
  EXPECT_EQ(metrics.counter("automap_sim_events_total", "")->value(),
            expected);

  const std::vector<std::uint64_t> seeds = test_seeds(3);
  for (const ExecutionReport& r : sim.run_repeats(f.mapping, seeds, scratch))
    expected += r.events;
  EXPECT_EQ(metrics.counter("automap_sim_events_total", "")->value(),
            expected);
}

}  // namespace
}  // namespace automap
