// Tests for the simulator fast path's bounded-abort semantics and the
// evaluator's incumbent-bounded candidate pruning: a bounded run censors if
// and only if the unbounded run would exceed the bound; a censored
// evaluation folds to exactly the censor threshold (never beating the
// incumbent); the full SearchResult is bit-identical with pruning on or
// off; censored profiles-database entries answer tight queries,
// re-resolve under looser ones, and survive an export/import round trip;
// the median's race censors exactly when the median of the unbounded runs
// exceeds the threshold, while the folds that do not race keep their
// recorded journals; and the mean's censor line follows the start
// mapping's measured run-to-run spread, rarely censors a candidate whose
// mean is at most the threshold, and cuts one 5 % slower after about a run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/registry.hpp"
#include "src/apps/stencil.hpp"
#include "src/io/line_reader.hpp"
#include "src/machine/machine.hpp"
#include "src/report/journal.hpp"
#include "src/search/coordinate_descent.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/durable.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "tests/process_temp_dir.hpp"

namespace automap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tiny app with a non-trivial mapping space (GPU-friendly producer, a
/// CPU-only task, two collections) — same shape as the evaluator tests.
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

/// A fast and a slow valid candidate for the MiniApp, ordered by their
/// exact (noise-free irrelevant: ordering measured) means under `sim`.
struct OrderedPair {
  Mapping fast, slow;
  double fast_mean, slow_mean;
};

OrderedPair ordered_pair(const MiniApp& app, const MachineModel& machine,
                         const Simulator& sim, const SearchOptions& opts) {
  Mapping a = search_starting_point(app.g, machine);
  Mapping b = a;
  b.at(app.producer).proc = ProcKind::kCpu;
  std::ranges::fill(b.memories(app.producer), MemPriority{MemKind::kSystem});
  // A throwaway evaluator with an empty finalist list measures both
  // exactly (the censor threshold is infinite until top_k finalists
  // exist). Means are reproducible: run seeds derive from (search seed,
  // mapping hash, repeat), not from evaluation order.
  Evaluator probe(sim, opts);
  const double mean_a = probe.evaluate(a);
  const double mean_b = probe.evaluate(b);
  EXPECT_NE(mean_a, mean_b);
  if (mean_a <= mean_b) return {a, b, mean_a, mean_b};
  return {b, a, mean_b, mean_a};
}

// --- simulator bounded-abort semantics -------------------------------------

TEST(SimTimeBound, CensorsExactlyWhenTheUnboundedRunExceedsTheBound) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.05});
  const Mapping m = search_starting_point(app.g, machine);

  const ExecutionReport full = sim.run(m, 7);
  ASSERT_TRUE(full.ok);
  ASSERT_FALSE(full.censored);
  ASSERT_GT(full.total_seconds, 0.0);

  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(m, scratch));
  // Bound above the makespan: identical result, not censored.
  {
    const ExecutionReport& r =
        sim.run_prepared(m, 7, scratch, full.total_seconds * 1.001);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.censored);
    EXPECT_EQ(r.total_seconds, full.total_seconds);
  }
  // Bound exactly at the makespan: the abort predicate is *strictly
  // exceeds*, so the run still completes.
  {
    const ExecutionReport& r =
        sim.run_prepared(m, 7, scratch, full.total_seconds);
    EXPECT_FALSE(r.censored);
    EXPECT_EQ(r.total_seconds, full.total_seconds);
  }
  // Bound below the makespan: censored, and the reported clock is the
  // value that crossed the bound — past the bound, at most the makespan.
  {
    const double bound = full.total_seconds * 0.25;
    const ExecutionReport& r = sim.run_prepared(m, 7, scratch, bound);
    EXPECT_TRUE(r.censored);
    EXPECT_GT(r.total_seconds, bound);
    EXPECT_LE(r.total_seconds, full.total_seconds);
  }
}

TEST(SimTimeBound, PreparedRunSequenceMatchesOneShotRuns) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.05});
  const Mapping m = search_starting_point(app.g, machine);

  SimScratch scratch;
  ASSERT_TRUE(sim.begin_runs(m, scratch));
  for (const std::uint64_t seed : {1u, 2u, 3u, 99u}) {
    const ExecutionReport full = sim.run(m, seed);
    const ExecutionReport& prepared = sim.run_prepared(m, seed, scratch, kInf);
    EXPECT_TRUE(prepared.ok);
    EXPECT_FALSE(prepared.censored);
    EXPECT_EQ(prepared.total_seconds, full.total_seconds);
  }
}

// --- censored evaluation ----------------------------------------------------

TEST(Pruning, CensoredCandidateNeverBeatsTheIncumbent) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  // Noise-free so each run equals the mean and the censor race is exact.
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  // top_k = 1 so a single incumbent already fills the finalist list (with
  // finalist slots open every candidate must be resolved exactly).
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  Evaluator eval(sim, opts);
  EXPECT_EQ(eval.evaluate(pair.fast), pair.fast_mean);

  // The slow candidate races against the incumbent's mean and is censored:
  // it folds to exactly the threshold, so it can never appear better than
  // the incumbent, and it stays out of the finalist list.
  const double threshold = eval.censor_threshold(pair.fast_mean);
  EXPECT_EQ(threshold, pair.fast_mean);
  const double value = eval.evaluate(pair.slow, threshold);
  EXPECT_EQ(value, pair.fast_mean);
  EXPECT_GE(value, pair.fast_mean);
  EXPECT_EQ(eval.stats().censored, 1u);
  EXPECT_EQ(eval.stats().evaluated, 2u);
  EXPECT_EQ(eval.best_seconds(), pair.fast_mean);
  EXPECT_EQ(eval.best(), pair.fast);
}

TEST(Pruning, CensorArithmeticIsIdenticalWithPruningOff) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.05});
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  SearchOptions pruned = opts;
  pruned.prune_candidates = true;
  SearchOptions unpruned = opts;
  unpruned.prune_candidates = false;

  Evaluator a(sim, pruned);
  Evaluator b(sim, unpruned);
  EXPECT_EQ(a.evaluate(pair.fast), b.evaluate(pair.fast));
  EXPECT_EQ(a.evaluate(pair.slow, a.censor_threshold(pair.fast_mean)),
            b.evaluate(pair.slow, b.censor_threshold(pair.fast_mean)));
  EXPECT_EQ(a.stats().censored, b.stats().censored);
  EXPECT_EQ(a.stats().search_time_s, b.stats().search_time_s);
  EXPECT_EQ(a.stats().evaluation_time_s,
            b.stats().evaluation_time_s);
  EXPECT_EQ(a.export_profiles(), b.export_profiles());
}

TEST(Pruning, DuplicateCensoredCandidatesFoldOnce) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  Evaluator eval(sim, opts);
  EXPECT_EQ(eval.evaluate(pair.fast), pair.fast_mean);

  // The slow candidate twice under one threshold: the first copy is
  // executed (and censored), the second is answered by the cache entry the
  // first one folded.
  const double threshold = eval.censor_threshold(pair.fast_mean);
  EXPECT_EQ(eval.evaluate(pair.slow, threshold), pair.fast_mean);
  EXPECT_EQ(eval.evaluate(pair.slow, threshold), pair.fast_mean);
  EXPECT_EQ(eval.stats().suggested, 3u);
  EXPECT_EQ(eval.stats().evaluated, 2u);
  EXPECT_EQ(eval.stats().censored, 1u);
  EXPECT_EQ(eval.stats().cache_hits, 1u);
}

// --- censored profiles-database entries ------------------------------------

TEST(Pruning, CensoredEntryReResolvesUnderALooserBound) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  Evaluator eval(sim, opts);
  EXPECT_EQ(eval.evaluate(pair.fast), pair.fast_mean);
  const double tight = eval.censor_threshold(pair.fast_mean);
  EXPECT_EQ(eval.evaluate(pair.slow, tight), pair.fast_mean);
  EXPECT_EQ(eval.stats().evaluated, 2u);
  EXPECT_EQ(eval.stats().censored, 1u);
  EXPECT_NE(eval.export_profiles().find(" censored"),
            std::string::npos);

  // An equally tight query is answered by the censored entry.
  EXPECT_EQ(eval.evaluate(pair.slow, tight), pair.fast_mean);
  EXPECT_EQ(eval.stats().evaluated, 2u);
  EXPECT_EQ(eval.stats().cache_hits, 1u);

  // A looser query (exact value wanted) re-executes and overwrites the
  // entry with the exact mean.
  EXPECT_EQ(eval.evaluate(pair.slow), pair.slow_mean);
  EXPECT_EQ(eval.stats().evaluated, 3u);
  EXPECT_EQ(eval.export_profiles().find(" censored"),
            std::string::npos);

  // Once resolved exactly, even tight queries are cache hits.
  EXPECT_EQ(eval.evaluate(pair.slow, tight), pair.slow_mean);
  EXPECT_EQ(eval.stats().evaluated, 3u);
  EXPECT_EQ(eval.stats().cache_hits, 2u);
}

TEST(Pruning, TightlyCensoredEntryReExecutesOnceThenHitsTheCache) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  Evaluator eval(sim, opts);
  EXPECT_EQ(eval.evaluate(pair.fast), pair.fast_mean);
  EXPECT_EQ(eval.evaluate(pair.slow, eval.censor_threshold(pair.fast_mean)),
            pair.fast_mean);
  const SearchStats before = eval.stats();
  ASSERT_EQ(before.censored, 1u);

  // The slow candidate's entry is censored at the incumbent, tighter than
  // an infinite threshold. The first exact query re-executes and
  // overwrites the entry with the exact mean; the second is answered by
  // that new entry.
  EXPECT_EQ(eval.evaluate(pair.slow), pair.slow_mean);
  EXPECT_EQ(eval.evaluate(pair.slow), pair.slow_mean);
  const SearchStats& after = eval.stats();
  EXPECT_EQ(after.evaluated, before.evaluated + 1);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.censored, before.censored);
  EXPECT_EQ(eval.export_profiles().find(" censored"),
            std::string::npos);
}

TEST(Pruning, CensoredEntriesSurviveExportImportRoundTrip) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const SearchOptions opts{.repeats = 3, .seed = 5, .top_k = 1};
  const OrderedPair pair = ordered_pair(app, machine, sim, opts);

  Evaluator first(sim, opts);
  EXPECT_EQ(first.evaluate(pair.fast), pair.fast_mean);
  EXPECT_EQ(first.evaluate(pair.slow, first.censor_threshold(pair.fast_mean)),
            pair.fast_mean);
  const std::string text = first.export_profiles();
  ASSERT_NE(text.find(" censored"), std::string::npos);

  SearchOptions seeded = opts;
  seeded.profiles_seed = text;
  Evaluator resumed(sim, seeded);
  // The exact entry seeds the incumbent; the censored one does not.
  EXPECT_TRUE(resumed.has_best());
  EXPECT_EQ(resumed.best_seconds(), pair.fast_mean);
  EXPECT_EQ(resumed.best(), pair.fast);

  // A query at the bound the entry was censored at is a cache hit...
  const double tight = resumed.censor_threshold(pair.fast_mean);
  EXPECT_EQ(tight, pair.fast_mean);
  EXPECT_EQ(resumed.evaluate(pair.slow, tight), pair.fast_mean);
  EXPECT_EQ(resumed.stats().evaluated, 0u);
  EXPECT_EQ(resumed.stats().cache_hits, 1u);
  // ...and a looser one re-executes the candidate.
  EXPECT_EQ(resumed.evaluate(pair.slow), pair.slow_mean);
  EXPECT_EQ(resumed.stats().evaluated, 1u);
}

// --- end-to-end search invariance ------------------------------------------

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

TEST(Pruning, CcdSearchResultBitIdenticalPruneOnOff) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  // The app's own settings (sigma 0.05) with the paper's repeat count race
  // a line that begin_search calibrates below sigma.
  const SimOptions small{.iterations = 3, .noise_sigma = 0.02};
  for (const auto& [sim_options, repeats] :
       {std::pair{small, 3}, {app.sim, 7}}) {
    SCOPED_TRACE("sigma " + json_double(sim_options.noise_sigma));
    Simulator sim(machine, app.graph, sim_options);
    SearchOptions base{.rotations = 3, .repeats = repeats, .seed = 42};
    base.prune_candidates = false;
    const SearchResult reference = run_ccd(sim, base);
    // The search must actually exercise censoring, or this test proves
    // nothing about pruning.
    EXPECT_GT(reference.stats.censored, 0u);

    SearchOptions pruned = base;
    pruned.prune_candidates = true;
    expect_identical(run_ccd(sim, pruned), reference, "prune on vs off");
  }
}

// --- the median's race -------------------------------------------------------

/// The noise seed of repeat `repeat` of a search-time run, restated from
/// Evaluator::run_seed (attempt 0) so a test can read each repeat's
/// unbounded total. MedianRace.CensorsExactlyWhenTheMedianExceedsTheThreshold
/// checks the restatement: an unthresholded evaluation must fold the median
/// of the totals it gives.
std::uint64_t eval_run_seed(std::uint64_t search_seed, std::uint64_t hash,
                            int repeat) {
  constexpr std::uint64_t kEvalSalt = 0x5bf03635f0a5a1edULL;
  const std::uint64_t s = mix64(mix64(search_seed ^ kEvalSalt) ^ hash);
  return mix64(s +
               0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(repeat + 1));
}

/// The unbounded totals of a search-time evaluation's `repeats` runs of
/// `mapping` under search seed `seed`, in repeat order.
std::vector<double> eval_run_totals(const Simulator& sim,
                                    const Mapping& mapping,
                                    std::uint64_t seed, int repeats) {
  SimScratch scratch;
  EXPECT_TRUE(sim.begin_runs(mapping, scratch));
  std::vector<double> totals;
  for (int r = 0; r < repeats; ++r)
    totals.push_back(
        sim.run_prepared(mapping, eval_run_seed(seed, mapping.hash(), r),
                         scratch, kInf)
            .total_seconds);
  return totals;
}

TEST(MedianRace, CensorsExactlyWhenTheMedianExceedsTheThreshold) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.05});
  const Mapping start = search_starting_point(app.g, machine);
  Mapping cpu = start;
  cpu.at(app.producer).proc = ProcKind::kCpu;
  std::ranges::fill(cpu.memories(app.producer),
                    MemPriority{MemKind::kSystem});
  Mapping leader = start;
  leader.at(app.consumer).distribute = false;

  constexpr int kRepeats = 7;
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    for (const Mapping& candidate : {start, cpu, leader}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", candidate " +
                   hex_u64(candidate.hash()));
      const std::vector<double> totals =
          eval_run_totals(sim, candidate, seed, kRepeats);
      std::vector<double> sorted = totals;
      std::sort(sorted.begin(), sorted.end());
      const double median = sorted[kRepeats / 2];

      SearchOptions options{.repeats = kRepeats, .seed = seed};
      options.resilience.aggregation = Aggregation::kMedian;
      ASSERT_EQ(Evaluator(sim, options).evaluate(candidate), median);

      // A threshold at every total and at its neighbours puts 0 to 7
      // repeats above it.
      std::vector<double> thresholds;
      for (const double t : totals)
        thresholds.insert(thresholds.end(),
                          {std::nextafter(t, 0.0), t, std::nextafter(t, kInf)});
      for (const double threshold : thresholds) {
        // The charge the race owes: every completed run's total, and the
        // threshold for each run past it, up to the majority that censors.
        double charge = 0.0;
        int crossed = 0;
        for (const double t : totals) {
          charge += t > threshold ? threshold : t;
          crossed += t > threshold ? 1 : 0;
          if (2 * crossed > kRepeats) break;
        }
        const bool censored = median > threshold;
        for (const bool prune : {true, false}) {
          SCOPED_TRACE(std::string("threshold ") + json_double(threshold) +
                       (prune ? ", prune on" : ", prune off"));
          options.prune_candidates = prune;
          Evaluator eval(sim, options);
          const double value = eval.evaluate(candidate, threshold);
          EXPECT_EQ(value, censored ? threshold : median);
          EXPECT_EQ(eval.stats().censored, censored ? 1u : 0u);
          EXPECT_EQ(eval.stats().evaluated, 1u);
          EXPECT_EQ(eval.stats().search_time_s, charge);
        }
      }
    }
  }
}

/// perfbench's median search in miniature: CCD on Stencil with an odd
/// repeat count under noise.
SearchOptions median_options() {
  SearchOptions options{.rotations = 3, .repeats = 5, .seed = 42};
  options.resilience.aggregation = Aggregation::kMedian;
  return options;
}

TEST(MedianRace, CcdSearchResultBitIdenticalPruneOnOff) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph, {.iterations = 3, .noise_sigma = 0.05});

  SearchOptions base = median_options();
  base.prune_candidates = false;
  const SearchResult reference = run_ccd(sim, base);
  EXPECT_GT(reference.stats.censored, 0u);

  SearchOptions pruned = base;
  pruned.prune_candidates = true;
  expect_identical(run_ccd(sim, pruned), reference, "prune on vs off");
}

/// Cuts a CCD search on Stencil at half its clock, resumes it from the
/// checkpoint and expects the uninterrupted result.
void expect_budget_cut_search_resumes(const SimOptions& sim_options,
                                      const SearchOptions& options,
                                      const std::string& file) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  Simulator sim(machine, app.graph, sim_options);
  const SearchResult reference = run_ccd(sim, options);
  ASSERT_GT(reference.stats.censored, 0u);

  const std::string path = process_temp_path(file);
  SearchOptions cut = options;
  cut.checkpoint_path = path;
  cut.time_budget_s = reference.stats.search_time_s * 0.5;
  (void)run_ccd(sim, cut);
  const DurableLoad checkpoint = load_checksummed(path);
  ASSERT_EQ(checkpoint.status, DurableLoad::Status::kOk);
  // The cut search logged censored candidates, so the resume replays them.
  EXPECT_NE(checkpoint.payload.find(" censored "), std::string::npos);

  SearchOptions resumed = options;
  resumed.resume_state = checkpoint.payload;
  expect_identical(run_ccd(sim, resumed), reference, "resumed run");
  std::remove(path.c_str());
}

TEST(MedianRace, BudgetCutSearchResumesToTheUninterruptedRun) {
  expect_budget_cut_search_resumes({.iterations = 3, .noise_sigma = 0.05},
                                   median_options(), "median_resume.txt");
}

/// Hex hash of the journal of a CCD search on Stencil under `options`,
/// noise-free so the pins below are exact.
std::string journal_hash(SearchOptions options, bool faults) {
  const MachineModel machine = make_shepard(1);
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  SimOptions sim_options{.iterations = 3, .noise_sigma = 0.0};
  if (faults)
    sim_options.faults = {.crash_prob = 0.001, .straggler_prob = 0.05};
  Simulator sim(machine, app.graph, sim_options);
  Journal journal;
  options.journal = &journal;
  (void)run_ccd(sim, options);
  return hex_u64(hash_text(journal.text()));
}

// The folds that do not race keep the journals recorded before the median
// raced: an even repeat count, fault injection, the trimmed mean.
TEST(MedianRace, FoldsThatDoNotRaceKeepTheirJournals) {
  SearchOptions even = median_options();
  even.repeats = 4;
  EXPECT_EQ(journal_hash(even, /*faults=*/false), "5c355d7590babac0");
  EXPECT_EQ(journal_hash(median_options(), /*faults=*/true),
            "7d41525ecf87fa5e");
  SearchOptions trimmed = median_options();
  trimmed.resilience.aggregation = Aggregation::kTrimmedMean;
  EXPECT_EQ(journal_hash(trimmed, /*faults=*/false), "4e934f20bd0ed0de");
}

// --- the mean's censor line -------------------------------------------------

/// The bounds docs/cost_model.md states for the line ("The mean's censor
/// line").
constexpr double kMaxFalseCensorShare = 0.001;
constexpr double kMaxRunsWorthFivePercentSlower = 1.1;

/// The mean line's slack c as docs/cost_model.md states it: min(sigma,
/// max(3 x cv, 0.001)), cv being the sample coefficient of variation of the
/// start mapping's evaluation runs.
double line_slack(const std::vector<double>& start_totals, double sigma) {
  const double n = static_cast<double>(start_totals.size());
  double mean = 0.0;
  for (const double t : start_totals) mean += t;
  mean /= n;
  double squares = 0.0;
  for (const double t : start_totals) squares += (t - mean) * (t - mean);
  const double cv = std::sqrt(squares / (n - 1.0)) / mean;
  return std::min(sigma, std::max(3.0 * cv, 0.001));
}

/// A valid mapping other than the start: its first task runs leader-only.
Mapping other_than_start(const TaskGraph& graph, const MachineModel& machine) {
  Mapping candidate = search_starting_point(graph, machine);
  candidate.at(graph.tasks().front().id).distribute = false;
  EXPECT_TRUE(candidate.valid(graph, machine));
  return candidate;
}

// The line is set by the start's measured spread, in each of its regimes:
// 3 x cv, the 0.001 floor, sigma itself when sigma is below the floor, and
// 0 at sigma 0. Measuring the start charges nothing. A threshold just
// under the candidate's first run divided by (1 + 3c) censors after that
// run, charging exactly B_1 = T (1 + 3c) (T itself at sigma 0); one just
// above lets the run complete.
TEST(MeanLine, FirstRunRacesTheLineTheStartsSpreadSets) {
  const MachineModel machine = make_shepard(1);
  constexpr int kRepeats = 7;
  constexpr std::uint64_t kSeed = 1;
  enum class Regime { kSpread, kFloor, kSigma };
  struct Case {
    const char* app;
    double sigma;
    Regime regime;
  };
  for (const Case& c : {Case{"stencil", 0.05, Regime::kSpread},
                        Case{"htr", 0.003, Regime::kFloor},
                        Case{"stencil", 0.0005, Regime::kSigma},
                        Case{"stencil", 0.0, Regime::kSigma}}) {
    SCOPED_TRACE(std::string(c.app) + " sigma " + json_double(c.sigma));
    const BenchmarkApp app = make_app_by_name(c.app, 1, 0);
    Simulator sim(machine, app.graph,
                  {.iterations = app.sim.iterations, .noise_sigma = c.sigma});
    const Mapping start = search_starting_point(app.graph, machine);
    const double slack =
        line_slack(eval_run_totals(sim, start, kSeed, kRepeats), c.sigma);
    switch (c.regime) {
      case Regime::kSpread:
        EXPECT_GT(slack, 0.001);
        EXPECT_LT(slack, c.sigma);
        break;
      case Regime::kFloor:
        EXPECT_EQ(slack, 0.001);
        break;
      case Regime::kSigma:
        EXPECT_EQ(slack, c.sigma);
        break;
    }

    const Mapping candidate = other_than_start(app.graph, machine);
    const double first =
        eval_run_totals(sim, candidate, kSeed, 1).front();
    const double tight = first / (1.0 + 3.0 * slack) * (1.0 - 1e-9);
    const double loose = first / (1.0 + 3.0 * slack) * (1.0 + 1e-9);
    for (const bool prune : {true, false}) {
      const SearchOptions options{
          .repeats = kRepeats, .seed = kSeed, .prune_candidates = prune};
      Evaluator censoring(sim, options);
      censoring.begin_search("line", start);
      EXPECT_EQ(censoring.stats().search_time_s, 0.0);
      EXPECT_EQ(censoring.evaluate(candidate, tight), tight);
      EXPECT_EQ(censoring.stats().censored, 1u);
      EXPECT_EQ(censoring.stats().search_time_s,
                tight * (1.0 + 3.0 * slack));

      Evaluator passing(sim, options);
      passing.begin_search("line", start);
      (void)passing.evaluate(candidate, loose);
      EXPECT_GT(passing.stats().search_time_s, first);
    }
  }
}

// A resumed search measures the start again, uncharged, and races its live
// candidates against the same line as the uninterrupted search.
TEST(MeanLine, BudgetCutSearchResumesToTheUninterruptedRun) {
  const BenchmarkApp app = make_stencil(stencil_config_for(1, 0));
  ASSERT_EQ(app.sim.noise_sigma, 0.05);
  const MachineModel machine = make_shepard(1);
  const Simulator sim(machine, app.graph, app.sim);
  const Mapping start = search_starting_point(app.graph, machine);
  // The calibrated line differs from sigma's, so a resume that kept
  // sigma's would race its live candidates differently.
  ASSERT_LT(line_slack(eval_run_totals(sim, start, 42, 7), 0.05), 0.05);
  expect_budget_cut_search_resumes(
      app.sim, {.rotations = 3, .repeats = 7, .seed = 42}, "mean_resume.txt");
}

/// What race_ccd_candidates measured.
struct Raced {
  std::size_t candidates = 0;
  std::size_t censored = 0;
  /// Each candidate's charge in units of its threshold, summed.
  double runs_worth = 0.0;
};

/// Evaluates every candidate a CCD search (7 repeats, seed 1) executes on
/// `name`'s step-0 input over shepard(`nodes`), at the app's own settings
/// (sigma 0.05), against the threshold `threshold(exact mean)`, in an
/// evaluator whose begin_search saw the §4.1 start. Candidates whose exact
/// 7-run mean is infinite are skipped. The candidates are read back from
/// the search's profiles database.
Raced race_ccd_candidates(const std::string& name, int nodes,
                          double (*threshold)(double exact_mean)) {
  const MachineModel machine = make_shepard(nodes);
  const BenchmarkApp app = make_app_by_name(name, nodes, 0);
  Simulator sim(machine, app.graph, app.sim);
  const SearchOptions options{.repeats = 7, .seed = 1};
  SearchOptions search = options;
  search.final_repeats = 1;
  std::istringstream db(run_ccd(sim, search).profiles_db);
  LineReader reader(db);
  const long long entries = reader.to_int(reader.tagged("profiles", 1)[1], 0);

  Evaluator exact(sim, options);
  Evaluator racing(sim, options);
  racing.begin_search("line", search_starting_point(app.graph, machine));
  Raced raced;
  std::vector<std::string> entry;
  for (long long i = 0; i < entries && reader.next(entry); ++i) {
    const Mapping candidate = Mapping::read(reader, app.graph);
    const double mean = exact.evaluate(candidate);
    if (!std::isfinite(mean)) continue;
    const double t = threshold(mean);
    const double clock = racing.stats().search_time_s;
    (void)racing.evaluate(candidate, t);
    raced.runs_worth += (racing.stats().search_time_s - clock) / t;
    ++raced.candidates;
  }
  raced.censored = racing.stats().censored;
  return raced;
}

// A candidate whose exact 7-run mean is at most T is censored only when a
// prefix of its runs crosses the line. Over every CCD candidate of the
// five apps on shepard(1) and shepard(2) at sigma 0.05, evaluated at T =
// its exact mean x (1 + 1e-9) (at T = the mean itself, 7 x (S/7) rounds
// below S about half the time and the cap censors), the censored share
// stays under the bound docs/cost_model.md states.
TEST(MeanLine, FalseCensorShareStaysUnderItsBound) {
  std::size_t candidates = 0;
  std::size_t censored = 0;
  for (const int nodes : {1, 2}) {
    for (const std::string& name : app_names()) {
      const Raced raced = race_ccd_candidates(
          name, nodes, [](double mean) { return mean * (1.0 + 1e-9); });
      std::printf("%s shepard(%d): %zu of %zu candidates censored\n",
                  name.c_str(), nodes, raced.censored, raced.candidates);
      candidates += raced.candidates;
      censored += raced.censored;
    }
  }
  EXPECT_GT(candidates, 2000u);
  EXPECT_LE(static_cast<double>(censored),
            kMaxFalseCensorShare * static_cast<double>(candidates));
}

// The line's power: on HTR and Pennant (shepard(1) and (2)), a CCD
// candidate whose exact mean is 5 % above T is charged about one run's
// worth of T on average (the per-event-sigma line charged 7.00: it let
// every such candidate run to the repeats x T cap).
TEST(MeanLine, CandidatesFivePercentSlowerChargeAboutOneRun) {
  for (const int nodes : {1, 2}) {
    for (const char* name : {"htr", "pennant"}) {
      SCOPED_TRACE(std::string(name) + " shepard(" + std::to_string(nodes) +
                   ")");
      const Raced raced = race_ccd_candidates(
          name, nodes, [](double mean) { return mean / 1.05; });
      ASSERT_GT(raced.candidates, 100u);
      const double average =
          raced.runs_worth / static_cast<double>(raced.candidates);
      std::printf("%s shepard(%d): %.3f runs' worth of T on average\n", name,
                  nodes, average);
      EXPECT_LE(average, kMaxRunsWorthFivePercentSlower);
    }
  }
}

}  // namespace
}  // namespace automap
