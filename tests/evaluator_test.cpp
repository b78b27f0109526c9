// Tests for Evaluator::evaluate's contract with the search loops: it folds
// every outcome kind of one candidate, never checks the budget (the loops
// do, before they propose), and censors at the threshold the caller holds,
// which censor_threshold derives from the caller's interest bound and the
// finalist list.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"

namespace automap {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Tiny app with a non-trivial mapping space (GPU-friendly producer, a
/// CPU-only task, two collections).
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

/// Three structurally distinct valid candidates.
std::vector<Mapping> three_candidates(const MiniApp& app,
                                      const MachineModel& machine) {
  std::vector<Mapping> out;
  out.push_back(search_starting_point(app.g, machine));
  Mapping b = out[0];
  b.at(app.producer).proc = ProcKind::kCpu;
  std::ranges::fill(b.memories(app.producer), MemPriority{MemKind::kSystem});
  out.push_back(b);
  Mapping c = out[0];
  c.set_primary_memory(app.producer, 0, MemKind::kZeroCopy);
  out.push_back(c);
  return out;
}

TEST(Evaluator, EvaluateNeverChecksTheBudget) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  // The budget expires with the first evaluation. Stopping is the search
  // loop's job (it checks budget_exhausted() before each proposal), so a
  // candidate proposed anyway is still executed and folded.
  Evaluator eval(sim, {.repeats = 2, .time_budget_s = 1e-9, .seed = 1});
  for (const Mapping& m : candidates)
    EXPECT_TRUE(std::isfinite(eval.evaluate(m)));
  EXPECT_TRUE(eval.budget_exhausted());
  EXPECT_EQ(eval.stats().suggested, 3u);
  EXPECT_EQ(eval.stats().evaluated, 3u);
}

TEST(Evaluator, FoldsOomAndCensoredOutcomes) {
  // One 32 GiB collection: fits Zero-Copy (60 GiB) and System (64 GiB) but
  // not a 16 GiB Frame-Buffer, so placement alone decides between a valid
  // run and an OOM. GPU compute must reach the data over the slow Zero-Copy
  // affinity, so against a CPU+System incumbent it is censored. The three
  // evaluations therefore fold all three outcome kinds — valid, OOM,
  // censored.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 29) - 1), 64);
  const CollectionId big =
      g.add_collection(r, "big", Rect::line(0, (1 << 29) - 1));
  (void)g.add_task(
      "work", 8,
      {.cpu_seconds_per_point = 2e-3, .gpu_seconds_per_point = 4e-5},
      {{big, Privilege::kReadWrite, 0.01}});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 2, .noise_sigma = 0.02});

  const TaskId work = TaskId(0);
  Mapping fast = search_starting_point(g, machine);
  fast.at(work).proc = ProcKind::kCpu;
  fast.set_primary_memory(work, 0, MemKind::kSystem);
  Mapping oom = fast;
  oom.at(work).proc = ProcKind::kGpu;
  oom.set_primary_memory(work, 0, MemKind::kFrameBuffer);
  Mapping slow = fast;
  slow.at(work).proc = ProcKind::kGpu;
  slow.set_primary_memory(work, 0, MemKind::kZeroCopy);

  Evaluator eval(sim, {.repeats = 3, .seed = 7, .top_k = 1});
  const double incumbent = eval.evaluate(fast);
  ASSERT_TRUE(std::isfinite(incumbent));
  const double threshold = eval.censor_threshold(incumbent);
  EXPECT_EQ(threshold, incumbent);
  EXPECT_TRUE(std::isinf(eval.evaluate(oom, threshold)));  // OOM: infinity
  EXPECT_EQ(eval.evaluate(slow, threshold), incumbent);  // censored: T

  const SearchStats& s = eval.stats();
  EXPECT_EQ(s.oom, 1u);
  EXPECT_EQ(s.censored, 1u);
  EXPECT_EQ(s.evaluated, 3u);
}

TEST(Evaluator, CensorThresholdIsTheLooserOfBoundAndKthFinalist) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  // With finalist slots open every candidate must be resolved exactly,
  // however tight the caller's bound.
  Evaluator eval(sim, {.repeats = 2, .seed = 3, .top_k = 2});
  EXPECT_EQ(eval.censor_threshold(0.0), kInf);
  const double a = eval.evaluate(candidates[0]);
  ASSERT_TRUE(std::isfinite(a));
  EXPECT_EQ(eval.censor_threshold(a), kInf);

  // Once the list is full, a bound tighter than the k-th finalist yields
  // to it (a candidate between the two could still enter the list), and a
  // looser bound wins.
  const double b = eval.evaluate(candidates[1]);
  ASSERT_TRUE(std::isfinite(b));
  const double kth = std::max(a, b);
  EXPECT_EQ(eval.censor_threshold(0.0), kth);
  EXPECT_EQ(eval.censor_threshold(std::min(a, b)), kth);
  EXPECT_EQ(eval.censor_threshold(2.0 * kth), 2.0 * kth);

  // The race bounds simulated seconds, which say nothing about joules, so
  // an energy search never censors, even with its finalist list full.
  Evaluator energy(sim, {.repeats = 2,
                         .seed = 3,
                         .top_k = 1,
                         .objective = Objective::kEnergy});
  const double joules = energy.evaluate(candidates[0]);
  ASSERT_TRUE(std::isfinite(joules));
  EXPECT_EQ(energy.censor_threshold(0.0), kInf);
  EXPECT_EQ(energy.censor_threshold(joules), kInf);
}

TEST(Evaluator, LeaderTasksDifferingOnlyInBlockedReplaceOneEntry) {
  // Two mappings that differ only in a leader task's meaningless `blocked`
  // flag share the structural hash and the identity key but are not equal:
  // each evaluation in turn misses the other's entry, re-executes (runs
  // seeded by the shared hash, so the same mean) and replaces it.
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.05});
  Mapping leader = search_starting_point(app.g, machine);
  leader.at(app.producer).distribute = false;
  leader.at(app.producer).blocked = false;
  Mapping blocked = leader;
  blocked.at(app.producer).blocked = true;
  ASSERT_NE(blocked, leader);

  Evaluator eval(sim, {.repeats = 2, .seed = 5});
  const double first = eval.evaluate(leader);
  ASSERT_TRUE(std::isfinite(first));
  EXPECT_EQ(eval.evaluate(blocked), first);
  EXPECT_EQ(eval.stats().evaluated, 2u);
  EXPECT_EQ(eval.stats().cache_hits, 0u);
  EXPECT_EQ(eval.evaluate(leader), first);
  EXPECT_EQ(eval.stats().evaluated, 3u);
  EXPECT_EQ(eval.stats().cache_hits, 0u);
  // One entry, holding the latest of the two.
  EXPECT_EQ(eval.export_profiles().rfind("profiles 1\n", 0), 0u);
  EXPECT_EQ(eval.evaluate(leader), first);
  EXPECT_EQ(eval.stats().cache_hits, 1u);
}

}  // namespace
}  // namespace automap
