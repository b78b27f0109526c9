// Tests for evaluate_batch's fold semantics: a batch folds exactly like
// the same candidates submitted one evaluate() at a time, duplicates hit the
// cache, invalid candidates never run, the budget and consume() cut the
// batch short, and one batch can fold every outcome kind.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/machine/machine.hpp"
#include "src/search/evaluator.hpp"
#include "src/search/search.hpp"

namespace automap {
namespace {

// --- evaluate_batch fold semantics -----------------------------------------

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
  b.at(app.producer).arg_memories.assign(2, {MemKind::kSystem});
  out.push_back(b);
  Mapping c = out[0];
  c.set_primary_memory(app.producer, 0, MemKind::kZeroCopy);
  out.push_back(c);
  return out;
}

TEST(EvaluateBatch, MatchesSerialEvaluateExactly) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  Evaluator serial(sim, {.repeats = 3, .seed = 11});
  std::vector<double> expected;
  for (const Mapping& m : candidates) expected.push_back(serial.evaluate(m));

  Evaluator batch(sim, {.repeats = 3, .seed = 11});
  const std::vector<double> means = batch.evaluate_batch(candidates);
  EXPECT_EQ(means, expected);
  EXPECT_EQ(batch.view().stats().suggested, serial.view().stats().suggested);
  EXPECT_EQ(batch.view().stats().evaluated, serial.view().stats().evaluated);
  EXPECT_EQ(batch.view().stats().search_time_s,
            serial.view().stats().search_time_s);
  EXPECT_EQ(batch.view().export_profiles(), serial.view().export_profiles());
}

TEST(EvaluateBatch, DuplicateInBatchHitsTheCache) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const Mapping m = search_starting_point(app.g, machine);
  const Mapping same = m;

  Evaluator eval(sim, {.repeats = 3, .seed = 1});
  const std::vector<Mapping> batch = {m, same};
  const std::vector<double> means = eval.evaluate_batch(batch);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_EQ(means[0], means[1]);
  // The duplicate counts as suggested but is answered from the cache.
  EXPECT_EQ(eval.view().stats().suggested, 2u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
}

TEST(EvaluateBatch, InvalidCandidateFoldsToInfinityWithoutExecution) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2});
  Mapping bad = search_starting_point(app.g, machine);
  bad.set_primary_memory(app.cpu_only, 0, MemKind::kFrameBuffer);
  const Mapping good = search_starting_point(app.g, machine);

  Evaluator eval(sim, {.repeats = 3, .seed = 1});
  const std::vector<Mapping> batch = {bad, good};
  const std::vector<double> means = eval.evaluate_batch(batch);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_TRUE(std::isinf(means[0]));
  EXPECT_FALSE(std::isinf(means[1]));
  EXPECT_EQ(eval.view().stats().invalid, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
}

TEST(EvaluateBatch, BudgetExhaustionFoldsOnlyAPrefix) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  // The budget expires after the first evaluation, exactly as it would in
  // a serial proposal loop: the remaining candidates are never suggested.
  Evaluator eval(sim,
                 {.repeats = 2, .time_budget_s = 1e-9, .seed = 1});
  const std::vector<double> means = eval.evaluate_batch(candidates);
  EXPECT_EQ(means.size(), 1u);
  EXPECT_EQ(eval.view().stats().suggested, 1u);
  EXPECT_TRUE(eval.budget_exhausted());
}

TEST(EvaluateBatch, ConsumeFalseDiscardsTheUnfoldedTail) {
  MiniApp app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.02});
  const std::vector<Mapping> candidates = three_candidates(app, machine);

  Evaluator eval(sim, {.repeats = 3, .seed = 5});
  const std::size_t folded = eval.evaluate_batch(
      candidates, [](std::size_t, double) { return false; });
  EXPECT_EQ(folded, 1u);
  // The tail left no trace: not suggested, not cached, no clock charge.
  EXPECT_EQ(eval.view().stats().suggested, 1u);
  EXPECT_EQ(eval.view().stats().evaluated, 1u);
  Evaluator fresh(sim, {.repeats = 3, .seed = 5});
  (void)fresh.evaluate(candidates[0]);
  EXPECT_EQ(eval.view().export_profiles(),
            fresh.view().export_profiles());
}

TEST(EvaluateBatch, MixedOutcomeBatchFoldsOomAndCensored) {
  // One 32 GiB collection: fits Zero-Copy (60 GiB) and System (64 GiB) but
  // not a 16 GiB Frame-Buffer, so placement alone decides between a valid
  // run and an OOM. GPU compute must reach the data over the slow Zero-Copy
  // affinity, so against a CPU+System incumbent it is censored. One batch
  // therefore folds all three outcome kinds — valid, OOM, censored.
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
  const std::vector<Mapping> batch = {oom, slow};

  Evaluator eval(sim, {.repeats = 3, .seed = 7, .top_k = 1});
  const double incumbent = eval.evaluate(fast);
  ASSERT_TRUE(std::isfinite(incumbent));
  const std::vector<double> means = eval.evaluate_batch(batch, incumbent);
  ASSERT_EQ(means.size(), batch.size());
  EXPECT_TRUE(std::isinf(means[0]));  // OOM folds to infinity
  EXPECT_EQ(means[1], incumbent);     // censored folds to the threshold

  const SearchStats& s = eval.view().stats();
  EXPECT_EQ(s.oom, 1u);
  EXPECT_EQ(s.censored, 1u);
  EXPECT_EQ(s.evaluated, 3u);
}

}  // namespace
}  // namespace automap
