// Unit tests for the execution simulator: determinism, cost-model ordering
// properties, copy inference, OOM handling and memory priority lists.

#include <gtest/gtest.h>

#include <cmath>

#include "src/automap/automap.hpp"
#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/error.hpp"
#include "src/support/metrics.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {
namespace {

/// A single group task touching one collection; the workhorse fixture.
struct SingleTask {
  TaskGraph g;
  CollectionId c;
  TaskId t;

  explicit SingleTask(std::uint64_t elements = 1 << 20, int points = 48,
                      double cpu_s = 1e-3, double gpu_s = 2e-5) {
    const RegionId r = g.add_region("r", Rect::line(0, elements - 1), 8);
    c = g.add_collection(r, "data", Rect::line(0, elements - 1));
    t = g.add_task("work", points,
                   {.cpu_seconds_per_point = cpu_s,
                    .gpu_seconds_per_point = gpu_s},
                   {{c, Privilege::kReadWrite, 1.0}});
  }

  [[nodiscard]] Mapping map(ProcKind p, MemKind m, bool distribute = true) {
    Mapping mapping(g);
    mapping.at(t).proc = p;
    mapping.at(t).distribute = distribute;
    mapping.set_primary_memory(t, 0, m);
    return mapping;
  }
};

TEST(Simulator, DeterministicForSameSeed) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 5, .noise_sigma = 0.1});
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  const auto r1 = sim.run(m, 7);
  const auto r2 = sim.run(m, 7);
  ASSERT_TRUE(r1.ok);
  EXPECT_DOUBLE_EQ(r1.total_seconds, r2.total_seconds);
}

TEST(Simulator, NoiseCreatesRunToRunVariation) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 5, .noise_sigma = 0.1});
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  const auto r1 = sim.run(m, 1);
  const auto r2 = sim.run(m, 2);
  EXPECT_NE(r1.total_seconds, r2.total_seconds);
}

TEST(Simulator, ZeroNoiseIsExactlyReproducibleAcrossSeeds) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 5, .noise_sigma = 0.0});
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  EXPECT_DOUBLE_EQ(sim.run(m, 1).total_seconds, sim.run(m, 2).total_seconds);
}

TEST(Simulator, GpuBeatsCpuOnComputeHeavyWork) {
  // Large per-point compute, GPU variant 50x faster: GPU should win.
  SingleTask app(/*elements=*/1 << 16, /*points=*/8, /*cpu_s=*/5e-2,
                 /*gpu_s=*/1e-3);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 3, .noise_sigma = 0.0});
  const double gpu =
      sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1).total_seconds;
  const double cpu =
      sim.run(app.map(ProcKind::kCpu, MemKind::kSystem), 1).total_seconds;
  EXPECT_LT(gpu, cpu);
}

TEST(Simulator, LaunchOverheadMakesCpuWinOnTinyTasks) {
  // Many tiny points: the single GPU pays per-point launch overhead
  // serially while 48 CPU cores absorb them in one wave.
  SingleTask app(/*elements=*/1 << 10, /*points=*/48, /*cpu_s=*/2e-5,
                 /*gpu_s=*/1e-6);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 3, .noise_sigma = 0.0});
  const double gpu =
      sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1).total_seconds;
  const double cpu =
      sim.run(app.map(ProcKind::kCpu, MemKind::kSystem), 1).total_seconds;
  EXPECT_LT(cpu, gpu);
}

TEST(Simulator, ZeroCopySlowerThanFrameBufferForGpuTask) {
  SingleTask app(/*elements=*/8 << 20);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 3, .noise_sigma = 0.0});
  const double fb =
      sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1).total_seconds;
  const double zc =
      sim.run(app.map(ProcKind::kGpu, MemKind::kZeroCopy), 1).total_seconds;
  EXPECT_LT(fb, zc);
}

TEST(Simulator, ZeroCopyAvoidsNumaPenaltyForCpuTask) {
  // System memory pays the cross-socket penalty on multi-socket nodes, so a
  // bandwidth-bound CPU task can be faster from the single ZeroCopy
  // allocation — the paper's Stencil observation (§5).
  SingleTask app(/*elements=*/64 << 20, /*points=*/48, /*cpu_s=*/1e-6,
                 /*gpu_s=*/1e-6);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 3, .noise_sigma = 0.0});
  const double system =
      sim.run(app.map(ProcKind::kCpu, MemKind::kSystem), 1).total_seconds;
  const double zc =
      sim.run(app.map(ProcKind::kCpu, MemKind::kZeroCopy), 1).total_seconds;
  EXPECT_LT(zc, system);
}

TEST(Simulator, InvalidMappingFailsCleanly) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {});
  const auto report = sim.run(app.map(ProcKind::kCpu, MemKind::kFrameBuffer), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("invalid mapping"), std::string::npos);
}

TEST(Simulator, OomDetectedWhenCollectionExceedsFrameBuffer) {
  // 24 GiB collection > 16 GiB Frame-Buffer on one node.
  SingleTask app(/*elements=*/3ull << 30);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {});
  const auto report = sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("out of memory"), std::string::npos);
  EXPECT_TRUE(std::isinf(measure_mapping(
      sim, app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 3, 1)));
}

TEST(Simulator, DistributionSplitsFootprintAcrossNodes) {
  // The same 24 GiB collection fits when spread over 2 nodes.
  SingleTask app(/*elements=*/3ull << 30);
  const MachineModel machine = make_shepard(2);
  Simulator sim(machine, app.g, {});
  const auto ok = sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1);
  EXPECT_TRUE(ok.ok);
  const auto oom = sim.run(
      app.map(ProcKind::kGpu, MemKind::kFrameBuffer, /*distribute=*/false), 1);
  EXPECT_FALSE(oom.ok);
}

TEST(Simulator, PriorityListDemotesInsteadOfFailing) {
  SingleTask app(/*elements=*/3ull << 30);  // 24 GiB
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {});
  Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  m.memories(app.t)[0] = {MemKind::kFrameBuffer, MemKind::kZeroCopy};
  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.demoted_args, 1);
}

TEST(Simulator, FootprintsReported) {
  SingleTask app(/*elements=*/1 << 20);  // 8 MiB
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {});
  const auto report = sim.run(app.map(ProcKind::kGpu, MemKind::kFrameBuffer), 1);
  ASSERT_TRUE(report.ok);
  bool found_fb = false;
  for (const auto& fp : report.footprints) {
    if (fp.kind == MemKind::kFrameBuffer) {
      found_fb = true;
      EXPECT_EQ(fp.peak_instance_bytes, 8u << 20);
      EXPECT_EQ(fp.capacity_bytes, 16ull << 30);
    }
  }
  EXPECT_TRUE(found_fb);
}

/// Producer/consumer pair for copy-inference tests.
struct ProducerConsumer {
  TaskGraph g;
  CollectionId c;
  TaskId producer, consumer;

  ProducerConsumer() {
    const RegionId r = g.add_region("r", Rect::line(0, (1 << 22) - 1), 8);
    c = g.add_collection(r, "data", Rect::line(0, (1 << 22) - 1));
    producer = g.add_task("produce", 8,
                          {.cpu_seconds_per_point = 1e-4,
                           .gpu_seconds_per_point = 1e-5},
                          {{c, Privilege::kWriteOnly, 1.0}});
    consumer = g.add_task("consume", 8,
                          {.cpu_seconds_per_point = 1e-4,
                           .gpu_seconds_per_point = 1e-5},
                          {{c, Privilege::kReadOnly, 1.0}});
    g.add_dependence({.producer = producer,
                      .consumer = consumer,
                      .producer_collection = c,
                      .consumer_collection = c,
                      .bytes = g.collection_bytes(c)});
  }
};

TEST(Simulator, MemoryKindMismatchTriggersCopies) {
  ProducerConsumer app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  Mapping same(app.g);
  same.at(app.producer).proc = ProcKind::kGpu;
  same.at(app.consumer).proc = ProcKind::kGpu;

  Mapping split = same;
  split.at(app.consumer).proc = ProcKind::kCpu;
  split.set_primary_memory(app.consumer, 0, MemKind::kSystem);

  const auto r_same = sim.run(same, 1);
  const auto r_split = sim.run(split, 1);
  ASSERT_TRUE(r_same.ok);
  ASSERT_TRUE(r_split.ok);
  EXPECT_EQ(r_same.intra_node_copy_bytes, 0u);
  EXPECT_GT(r_split.intra_node_copy_bytes, 0u);
  EXPECT_GT(r_split.total_seconds, r_same.total_seconds);
}

TEST(Simulator, SharedZeroCopyAvoidsCopiesForMixedProcKinds) {
  // GPU producer + CPU consumer: both in ZeroCopy beats producer-in-FB when
  // the copy over PCIe dominates — the paper's central trade-off (§1). The
  // win comes from copies moving the *whole* instance while the tasks only
  // touch a fraction of it per iteration.
  ProducerConsumer app;
  for (auto& task : {app.producer, app.consumer}) (void)task;
  // Rebuild with partial access: tasks touch 30 % of the bytes.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 22) - 1), 8);
  const CollectionId c = g.add_collection(r, "data", Rect::line(0, (1 << 22) - 1));
  app.producer = g.add_task("produce", 8,
                            {.cpu_seconds_per_point = 1e-4,
                             .gpu_seconds_per_point = 1e-5},
                            {{c, Privilege::kWriteOnly, 0.3}});
  app.consumer = g.add_task("consume", 8,
                            {.cpu_seconds_per_point = 1e-4,
                             .gpu_seconds_per_point = 1e-5},
                            {{c, Privilege::kReadOnly, 0.3}});
  g.add_dependence({.producer = app.producer,
                    .consumer = app.consumer,
                    .producer_collection = c,
                    .consumer_collection = c,
                    .bytes = g.collection_bytes(c)});
  app.g = std::move(g);
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  Mapping mixed_fb(app.g);
  mixed_fb.at(app.producer).proc = ProcKind::kGpu;
  mixed_fb.set_primary_memory(app.producer, 0, MemKind::kFrameBuffer);
  mixed_fb.at(app.consumer).proc = ProcKind::kCpu;
  mixed_fb.set_primary_memory(app.consumer, 0, MemKind::kSystem);

  Mapping shared_zc = mixed_fb;
  shared_zc.set_primary_memory(app.producer, 0, MemKind::kZeroCopy);
  shared_zc.set_primary_memory(app.consumer, 0, MemKind::kZeroCopy);

  const auto r_fb = sim.run(mixed_fb, 1);
  const auto r_zc = sim.run(shared_zc, 1);
  ASSERT_TRUE(r_fb.ok);
  ASSERT_TRUE(r_zc.ok);
  EXPECT_EQ(r_zc.intra_node_copy_bytes, 0u);
  EXPECT_LT(r_zc.total_seconds, r_fb.total_seconds);
}

TEST(Simulator, LeaderOnlyGroupGathersAcrossNodes) {
  ProducerConsumer app;
  const MachineModel machine = make_shepard(4);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});

  Mapping m(app.g);
  m.at(app.producer).proc = ProcKind::kGpu;
  m.at(app.consumer).proc = ProcKind::kGpu;
  m.at(app.consumer).distribute = false;  // gather to the leader

  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok);
  EXPECT_GT(report.inter_node_copy_bytes, 0u);
}

TEST(Simulator, OrderingEdgesMoveNoData) {
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, 1023), 8);
  const CollectionId c = g.add_collection(r, "c", Rect::line(0, 1023));
  const TaskId a = g.add_task("w1", 4, {.cpu_seconds_per_point = 1e-4,
                                        .gpu_seconds_per_point = 1e-5},
                              {{c, Privilege::kWriteOnly, 1.0}});
  const TaskId b = g.add_task("w2", 4, {.cpu_seconds_per_point = 1e-4,
                                        .gpu_seconds_per_point = 1e-5},
                              {{c, Privilege::kWriteOnly, 1.0}});
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = c, .consumer_collection = c,
                    .bytes = g.collection_bytes(c), .carries_data = false});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});
  const auto report = sim.run(Mapping(g), 1);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.intra_node_copy_bytes + report.inter_node_copy_bytes, 0u);
}

TEST(Simulator, MoreIterationsTakeProportionallyLonger) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim1(machine, app.g, {.iterations = 1, .noise_sigma = 0.0});
  Simulator sim4(machine, app.g, {.iterations = 4, .noise_sigma = 0.0});
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  const double t1 = sim1.run(m, 1).total_seconds;
  const double t4 = sim4.run(m, 1).total_seconds;
  EXPECT_NEAR(t4, 4.0 * t1, 0.05 * t4);
  EXPECT_NEAR(t4 / sim4.options().iterations, t1, 0.05 * t1);
}

TEST(Simulator, WeakScalingKeepsTimeRoughlyFlat) {
  // Distributed task, work and data scale with nodes: per-node time constant.
  auto make = [](int nodes) {
    auto app = std::make_unique<SingleTask>(
        /*elements=*/std::uint64_t(nodes) << 20, /*points=*/8 * nodes,
        /*cpu_s=*/1e-3, /*gpu_s=*/5e-5);
    return app;
  };
  const auto app1 = make(1);
  const auto app4 = make(4);
  const MachineModel machine1 = make_shepard(1);
  const MachineModel machine4 = make_shepard(4);
  Simulator sim1(machine1, app1->g, {.iterations = 2, .noise_sigma = 0.0});
  Simulator sim4(machine4, app4->g, {.iterations = 2, .noise_sigma = 0.0});
  const Mapping map1(app1->g);
  const Mapping map4(app4->g);
  const double t1 = sim1.run(map1, 1).total_seconds;
  const double t4 = sim4.run(map4, 1).total_seconds;
  EXPECT_NEAR(t4, t1, 0.25 * t1);
}

TEST(Simulator, MeanTotalSecondsAveragesNoise) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, app.g, {.iterations = 2, .noise_sigma = 0.15});
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  const double mean7 = measure_mapping(sim, m, 7, 42);
  const double single = sim.run(m, mix64(42)).total_seconds;
  EXPECT_GT(mean7, 0.0);
  // The 7-run mean should be closer to the noiseless time than an unlucky
  // single run can be; just sanity-check both are in a plausible band.
  Simulator quiet(machine, app.g, {.iterations = 2, .noise_sigma = 0.0});
  const double truth = quiet.run(m, 0).total_seconds;
  EXPECT_NEAR(mean7, truth, 0.25 * truth);
  EXPECT_NEAR(single, truth, 0.8 * truth);
}

TEST(Simulator, MeasureMappingRunsReachTheRunCounters) {
  // measure_mapping backs `automap_cli evaluate`, automap_online and the
  // figure benches; its runs count like every other simulated run.
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  MetricsRegistry metrics;
  const SimOptions options{.iterations = 2, .noise_sigma = 0.15};
  SimOptions counted = options;
  counted.metrics = &metrics;
  const Simulator sim(machine, app.g, counted);
  const Mapping m = app.map(ProcKind::kGpu, MemKind::kFrameBuffer);
  constexpr int kRepeats = 5;
  ASSERT_TRUE(std::isfinite(measure_mapping(sim, m, kRepeats, 42)));

  // Without faults or a bound, noise moves times but never the event count,
  // so the repeats' summed events are kRepeats times one run's.
  const std::uint64_t events_per_run =
      Simulator(machine, app.g, options).run(m, 1).events;
  ASSERT_GT(events_per_run, 0u);
  EXPECT_EQ(metrics.counter("automap_sim_runs_total", "")->value(),
            static_cast<std::uint64_t>(kRepeats));
  EXPECT_EQ(metrics.counter("automap_sim_events_total", "")->value(),
            kRepeats * events_per_run);
}

TEST(Simulator, RejectsBadOptions) {
  SingleTask app;
  const MachineModel machine = make_shepard(1);
  EXPECT_THROW(Simulator(machine, app.g, {.iterations = 0}), Error);
  EXPECT_THROW(
      Simulator(machine, app.g, {.iterations = 1, .noise_sigma = -0.1}),
      Error);
}

}  // namespace
}  // namespace automap
