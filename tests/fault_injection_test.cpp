// Tests for the deterministic fault-injection layer and the resilience
// machinery built on top of it: simulator-side fault semantics (crash /
// straggler / memory pressure / copy faults), the evaluator's retry,
// quarantine and robust-aggregation policies, graceful degradation, and
// checkpoint/resume — all under the same bit-identical-across-thread-counts
// guarantee the fault-free engine provides.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/stencil.hpp"
#include "src/io/text_io.hpp"
#include "src/machine/machine.hpp"
#include "src/report/analysis.hpp"
#include "src/report/profile.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

/// Same tiny app as evaluator_batch_test: GPU-friendly producer, a CPU-only
/// task, two collections, one data dependence (so copy faults have a leg to
/// hit).
struct MiniApp {
  TaskGraph g;
  CollectionId shared, other;
  TaskId producer, consumer, cpu_only;

  MiniApp() {
    const RegionId r = g.add_region("r", Rect::line(0, (1 << 21) - 1), 8);
    shared = g.add_collection(r, "shared", Rect::line(0, (1 << 20) - 1));
    other =
        g.add_collection(r, "other", Rect::line(1 << 20, (1 << 21) - 1));
    producer = g.add_task(
        "produce", 8,
        {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 4e-5},
        {{shared, Privilege::kWriteOnly, 0.4},
         {other, Privilege::kReadOnly, 0.5}});
    consumer = g.add_task("consume", 8, {.cpu_seconds_per_point = 1e-4},
                          {{shared, Privilege::kReadOnly, 0.4}});
    cpu_only = g.add_task("host_side", 8, {.cpu_seconds_per_point = 5e-5},
                          {{other, Privilege::kReadWrite, 0.3}});
    g.add_dependence({.producer = producer,
                      .consumer = consumer,
                      .producer_collection = shared,
                      .consumer_collection = shared,
                      .bytes = g.collection_bytes(shared)});
  }
};

/// Full-strength result comparison, including the resilience counters the
/// fault layer added.
void expect_identical(const SearchResult& a, const SearchResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.best, b.best) << context;
  EXPECT_EQ(a.best_seconds, b.best_seconds) << context;
  EXPECT_EQ(a.stats.suggested, b.stats.suggested) << context;
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated) << context;
  EXPECT_EQ(a.stats.invalid, b.stats.invalid) << context;
  EXPECT_EQ(a.stats.oom, b.stats.oom) << context;
  EXPECT_EQ(a.stats.censored, b.stats.censored) << context;
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits) << context;
  EXPECT_EQ(a.stats.transient_failures, b.stats.transient_failures)
      << context;
  EXPECT_EQ(a.stats.retries, b.stats.retries) << context;
  EXPECT_EQ(a.stats.quarantined, b.stats.quarantined) << context;
  EXPECT_EQ(a.stats.degraded, b.stats.degraded) << context;
  EXPECT_EQ(a.stats.search_time_s, b.stats.search_time_s) << context;
  EXPECT_EQ(a.stats.evaluation_time_s, b.stats.evaluation_time_s) << context;
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << context;
  for (std::size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].search_time_s, b.trajectory[i].search_time_s)
        << context;
    EXPECT_EQ(a.trajectory[i].best_exec_s, b.trajectory[i].best_exec_s)
        << context;
  }
  EXPECT_EQ(a.profiles_db, b.profiles_db) << context;
}

// --- simulator-side fault semantics ----------------------------------------

TEST(SimFaults, CrashIsDeterministicAndTransient) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.0,
                 .faults = {.crash_prob = 1.0}});
  const Mapping m = search_starting_point(app.g, machine);

  const ExecutionReport first = sim.run(m, 7);
  EXPECT_FALSE(first.ok);
  EXPECT_TRUE(first.transient);
  EXPECT_NE(first.failure.find("transient crash"), std::string::npos);
  EXPECT_GE(first.faults.crashes, 1);
  EXPECT_GT(first.total_seconds, 0.0);

  // Same (mapping, seed) -> bit-identical fault draws and abort point.
  const ExecutionReport again = sim.run(m, 7);
  EXPECT_EQ(again.ok, first.ok);
  EXPECT_EQ(again.total_seconds, first.total_seconds);
  EXPECT_EQ(again.failure, first.failure);
  EXPECT_EQ(again.faults.crashes, first.faults.crashes);
}

TEST(SimFaults, StragglerInflatesRunAndIsAttributedInTheProfile) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);

  Simulator clean(machine, app.g,
                  {.iterations = 2, .noise_sigma = 0.0, .record_trace = true});
  Simulator slow(machine, app.g,
                 {.iterations = 2, .noise_sigma = 0.0, .record_trace = true,
                  .faults = {.straggler_prob = 1.0, .straggler_factor = 4.0}});

  const ExecutionReport base = clean.run(m, 3);
  const ExecutionReport hit = slow.run(m, 3);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_GT(hit.total_seconds, base.total_seconds);
  EXPECT_GT(hit.faults.stragglers, 0);
  EXPECT_GT(hit.faults.lost_seconds, 0.0);

  // kFault annotations reach the trace and the profile attributes them
  // without double-booking resource busy time.
  bool saw_fault_event = false;
  for (const TraceEvent& e : hit.trace)
    saw_fault_event |= e.kind == TraceEvent::Kind::kFault;
  EXPECT_TRUE(saw_fault_event);

  const ExecutionProfile clean_profile = compute_profile(app.g, base);
  const ExecutionProfile fault_profile = compute_profile(app.g, hit);
  EXPECT_EQ(clean_profile.fault_events, 0u);
  EXPECT_GT(fault_profile.fault_events, 0u);
  EXPECT_GT(fault_profile.fault_lost_s, 0.0);
  EXPECT_NE(render_profile(app.g, fault_profile).find("injected faults:"),
            std::string::npos);
}

TEST(SimFaults, MemoryPressureOomIsTransient) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);

  // Headroom so small that any resident collection overflows it.
  Simulator squeezed(machine, app.g,
                     {.iterations = 2,
                      .faults = {.mem_pressure_prob = 1.0,
                                 .mem_pressure_headroom = 1e-6}});
  const ExecutionReport fail = squeezed.run(m, 5);
  EXPECT_FALSE(fail.ok);
  EXPECT_TRUE(fail.transient);
  EXPECT_FALSE(fail.failure.empty());
  EXPECT_EQ(fail.faults.mem_pressure, 1);

  // Full headroom: the pressure window fires but nothing overflows.
  Simulator roomy(machine, app.g,
                  {.iterations = 2,
                   .faults = {.mem_pressure_prob = 1.0,
                              .mem_pressure_headroom = 1.0}});
  const ExecutionReport ok = roomy.run(m, 5);
  EXPECT_TRUE(ok.ok);
  EXPECT_FALSE(ok.transient);
}

TEST(SimFaults, CopyFaultReissuesTheLeg) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);

  Simulator clean(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  Simulator flaky(machine, app.g,
                  {.iterations = 2, .noise_sigma = 0.0,
                   .faults = {.copy_fault_prob = 1.0}});
  const ExecutionReport base = clean.run(m, 9);
  const ExecutionReport hit = flaky.run(m, 9);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_GT(hit.faults.copy_retries, 0);
  EXPECT_GT(hit.faults.lost_seconds, 0.0);
  EXPECT_GT(hit.total_seconds, base.total_seconds);
}

// --- evaluator resilience policy -------------------------------------------

TEST(Resilience, PolicyIsInertWithoutFaults) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});

  SearchOptions plain{.rotations = 2, .repeats = 3, .seed = 21};
  SearchOptions armed = plain;
  armed.resilience = {.max_retries = 5, .quarantine_after = 1,
                      .retry_backoff_s = 2.5};

  const SearchResult a = run_ccd(sim, plain);
  const SearchResult b = run_ccd(sim, armed);
  expect_identical(a, b, "fault-free resilience policy");
  EXPECT_EQ(b.stats.transient_failures, 0u);
  EXPECT_EQ(b.stats.retries, 0u);
  EXPECT_EQ(b.stats.quarantined, 0u);
  EXPECT_FALSE(b.stats.degraded);
}

TEST(Resilience, RetryRecoversTransientCrashesAndChargesTheClock) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);

  Simulator clean(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  Simulator faulty(machine, app.g,
                   {.iterations = 2, .noise_sigma = 0.0,
                    .faults = {.crash_prob = 0.4}});

  Evaluator reference(clean, {.repeats = 5, .seed = 13});
  const double clean_mean = reference.evaluate(m);
  ASSERT_TRUE(std::isfinite(clean_mean));

  SearchOptions options{.repeats = 5, .seed = 13};
  options.resilience = {.max_retries = 6, .quarantine_after = 0};
  Evaluator eval(faulty, options);
  const double mean = eval.evaluate(m);
  EXPECT_TRUE(std::isfinite(mean));

  const SearchStats& s = eval.view().stats();
  EXPECT_GE(s.transient_failures, 1u);
  EXPECT_GE(s.retries, 1u);
  EXPECT_EQ(s.quarantined, 0u);
  // Lost attempts and backoff are charged to the simulated search clock.
  EXPECT_GT(s.search_time_s, reference.view().stats().search_time_s);
}

TEST(Resilience, QuarantineCachesAlwaysCrashingCandidates) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);
  Simulator sim(machine, app.g,
                {.iterations = 2, .faults = {.crash_prob = 1.0}});

  SearchOptions options{.repeats = 4, .seed = 2};
  options.resilience = {.max_retries = 0, .quarantine_after = 2};
  Evaluator eval(sim, options);

  EXPECT_TRUE(std::isinf(eval.evaluate(m)));
  const SearchStats& s = eval.view().stats();
  EXPECT_EQ(s.quarantined, 1u);
  // The quarantine cutoff fired after exactly two lost repeats; the
  // remaining repeats were never attempted.
  EXPECT_EQ(s.transient_failures, 2u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.evaluated, 1u);

  // Quarantined candidates are cached as failed: re-proposal costs nothing.
  EXPECT_TRUE(std::isinf(eval.evaluate(m)));
  EXPECT_EQ(eval.view().stats().cache_hits, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
  EXPECT_NE(eval.view().export_profiles().find("quarantined"),
            std::string::npos);
}

TEST(Resilience, FullyLostCandidateFailsEvenWithoutQuarantineCutoff) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);
  Simulator sim(machine, app.g,
                {.iterations = 2, .faults = {.crash_prob = 1.0}});

  SearchOptions options{.repeats = 3, .seed = 4};
  options.resilience = {.max_retries = 0, .quarantine_after = 0};
  Evaluator eval(sim, options);

  EXPECT_TRUE(std::isinf(eval.evaluate(m)));
  const SearchStats& s = eval.view().stats();
  // Every repeat was attempted (no cutoff), every one was lost; the
  // candidate is still cached as failed so it is never re-run.
  EXPECT_EQ(s.transient_failures, 3u);
  EXPECT_EQ(s.quarantined, 1u);
}

TEST(Resilience, RobustAggregationsResistStragglers) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  const Mapping m = search_starting_point(app.g, machine);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.0,
                 .faults = {.straggler_prob = 0.05,
                            .straggler_factor = 10.0}});

  auto mean_under = [&](Aggregation agg) {
    SearchOptions options{.repeats = 7, .seed = 6};
    options.resilience.aggregation = agg;
    Evaluator eval(sim, options);
    const double v = eval.evaluate(m);
    EXPECT_TRUE(std::isfinite(v));
    return v;
  };

  const double mean = mean_under(Aggregation::kMean);
  const double median = mean_under(Aggregation::kMedian);
  const double trimmed = mean_under(Aggregation::kTrimmedMean);
  // Stragglers inflate the right tail only: the mean chases the outliers,
  // the robust folds do not.
  EXPECT_LT(median, mean);
  EXPECT_LT(trimmed, mean);
}

TEST(Resilience, SearchUnderFaultsIsThreadCountInvariant) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph,
                {.iterations = 3, .noise_sigma = 0.02,
                 .faults = {.crash_prob = 0.05,
                            .straggler_prob = 0.1,
                            .straggler_factor = 3.0,
                            .mem_pressure_prob = 0.02,
                            .copy_fault_prob = 0.02}});

  SearchOptions options{.rotations = 2, .repeats = 3, .seed = 17};
  options.resilience = {.max_retries = 2, .quarantine_after = 3};
  options.threads = 1;
  const SearchResult serial = run_ccd(sim, options);
  EXPECT_GT(serial.stats.transient_failures, 0u);
  for (const int threads : {2, 4}) {
    options.threads = threads;
    expect_identical(run_ccd(sim, options), serial,
                     "faulty threads=" + std::to_string(threads));
  }
}

TEST(Resilience, UnprofilableSearchDegradesToTheKnownIncumbent) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));

  // A fault-free search provides the incumbent knowledge (Figure 4's
  // persistent profiles database).
  Simulator clean(machine, app.graph, {.iterations = 2, .noise_sigma = 0.0});
  const SearchResult before =
      run_ccd(clean, {.rotations = 2, .repeats = 2, .seed = 8});
  ASSERT_TRUE(std::isfinite(before.best_seconds));

  // Under a 100 % crash rate nothing is profilable: instead of throwing,
  // the search returns the imported incumbent and flags the degradation.
  Simulator storm(machine, app.graph,
                  {.iterations = 2, .faults = {.crash_prob = 1.0}});
  SearchOptions options{.rotations = 2, .repeats = 2, .seed = 8};
  options.profiles_seed = before.profiles_db;
  options.resilience = {.max_retries = 0, .quarantine_after = 1};
  const SearchResult after = run_ccd(storm, options);

  EXPECT_TRUE(after.stats.degraded);
  EXPECT_TRUE(std::isfinite(after.best_seconds));
  EXPECT_NE(render_search_telemetry(after).find("DEGRADED"),
            std::string::npos);
}

// --- checkpoint / resume ---------------------------------------------------

TEST(Checkpoint, WritingCheckpointsDoesNotChangeTheResult) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.02,
                 .faults = {.straggler_prob = 0.1, .straggler_factor = 3.0}});

  SearchOptions options{.rotations = 2, .repeats = 3, .seed = 31};
  const SearchResult plain = run_ccd(sim, options);

  const std::string path =
      ::testing::TempDir() + "automap_ckpt_inert.txt";
  options.checkpoint_path = path;
  const SearchResult checkpointed = run_ccd(sim, options);
  expect_identical(checkpointed, plain, "checkpointing run");
  // The rotation-boundary checkpoint of the final rotation is on disk.
  EXPECT_FALSE(load_text(path).empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, EvaluatorStateRoundTripsExactly) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g,
                {.iterations = 2, .noise_sigma = 0.02,
                 .faults = {.crash_prob = 0.1}});

  SearchOptions options{.repeats = 3, .seed = 12};
  options.resilience = {.max_retries = 1, .quarantine_after = 2};
  Evaluator original(sim, options);
  std::vector<Mapping> candidates;
  candidates.push_back(search_starting_point(app.g, machine));
  Mapping b = candidates[0];
  b.at(app.producer).proc = ProcKind::kCpu;
  b.at(app.producer).arg_memories.assign(2, {MemKind::kSystem});
  candidates.push_back(b);
  (void)original.evaluate_batch(candidates);

  const std::string state = original.serialize_state();
  Evaluator restored(sim, options);
  restored.restore_state(state);
  EXPECT_EQ(restored.serialize_state(), state);
  EXPECT_EQ(restored.view().export_profiles(),
            original.view().export_profiles());
  EXPECT_EQ(restored.view().best_seconds(),
            original.view().best_seconds());
  EXPECT_EQ(restored.view().stats().search_time_s,
            original.view().stats().search_time_s);
}

TEST(Checkpoint, ResumedSearchMatchesTheUninterruptedRun) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph,
                {.iterations = 2, .noise_sigma = 0.02,
                 .faults = {.crash_prob = 0.05,
                            .straggler_prob = 0.05,
                            .straggler_factor = 3.0}});

  SearchOptions options{.rotations = 3, .repeats = 2, .seed = 23};
  options.resilience = {.max_retries = 1, .quarantine_after = 3};
  const SearchResult reference = run_ccd(sim, options);

  // Kill the search mid-flight via the budget: checkpoints stop at the last
  // state the uninterrupted run also passes through.
  const std::string path =
      ::testing::TempDir() + "automap_ckpt_resume.txt";
  SearchOptions truncated = options;
  truncated.checkpoint_path = path;
  truncated.time_budget_s = reference.stats.search_time_s * 0.5;
  (void)run_ccd(sim, truncated);
  // Checkpoints carry a checksum trailer on disk; load them the way the
  // CLI's --resume does.
  const DurableLoad checkpoint = load_checksummed(path);
  ASSERT_EQ(checkpoint.status, DurableLoad::Status::kOk);
  ASSERT_FALSE(checkpoint.payload.empty());

  SearchOptions resumed = options;
  resumed.resume_state = checkpoint.payload;
  expect_identical(run_ccd(sim, resumed), reference, "resumed run");
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRejectsAlgorithmMismatch) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});

  const std::string path =
      ::testing::TempDir() + "automap_ckpt_mismatch.txt";
  SearchOptions options{.rotations = 2, .repeats = 2, .seed = 3};
  options.checkpoint_path = path;
  (void)run_ccd(sim, options);

  SearchOptions wrong{.rotations = 2, .repeats = 2, .seed = 3};
  wrong.resume_state = load_checksummed(path).payload;
  EXPECT_THROW((void)run_cd(sim, wrong), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRejectsANegativeOrFractionalRotation) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 2, .noise_sigma = 0.02});

  const std::string path = ::testing::TempDir() + "automap_ckpt_cursor.txt";
  SearchOptions options{.rotations = 2, .repeats = 2, .seed = 5};
  options.checkpoint_path = path;
  const SearchResult reference = run_ccd(sim, options);
  const std::string payload = load_checksummed(path).payload;
  std::remove(path.c_str());

  // The last checkpoint sits at the end of the final rotation. Resumed
  // as written it replays nothing and lands on the same result; edited,
  // its cursor must be refused rather than cast into a different search
  // (rotation -1 would rerun the whole descent and report 5 rotations).
  const std::string cursor = "\nrotation 2\n";
  ASSERT_NE(payload.find(cursor), std::string::npos);
  SearchOptions resumed{.rotations = 2, .repeats = 2, .seed = 5};
  resumed.resume_state = payload;
  EXPECT_EQ(run_ccd(sim, resumed).stats.rotations.size(),
            reference.stats.rotations.size());
  for (const char* bad : {"rotation -1", "rotation 1.5"}) {
    resumed.resume_state = payload;
    resumed.resume_state.replace(payload.find(cursor), cursor.size(),
                                 "\n" + std::string(bad) + "\n");
    EXPECT_THROW((void)run_ccd(sim, resumed), Error) << bad;
  }
}

}  // namespace
}  // namespace automap
