// Deeper cost-model tests: multi-GPU wave behaviour on Lassen, channel
// contention, blocked-vs-round-robin distribution, CPU-only machines and
// energy accounting.

#include <gtest/gtest.h>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/sim/simulator.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {
namespace {

TaskGraph compute_task(int points, double gpu_s, std::uint64_t elements = 1024) {
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, elements - 1), 8);
  const CollectionId c = g.add_collection(r, "c", Rect::line(0, elements - 1));
  g.add_task("work", points,
             {.cpu_seconds_per_point = gpu_s * 50,
              .gpu_seconds_per_point = gpu_s},
             {{c, Privilege::kReadWrite, 1.0}});
  return g;
}

TEST(SimulatorModel, FourGpusAbsorbFourPointsInOneWave) {
  // A 4-point group on Lassen (4 GPUs) runs one wave; on Shepard (1 GPU)
  // it serializes into 4 waves.
  const TaskGraph g = compute_task(4, 5e-3);
  const MachineModel lassen = make_lassen(1);
  const MachineModel shepard = make_shepard(1);
  Simulator sim_l(lassen, g, {.iterations = 1, .noise_sigma = 0.0});
  Simulator sim_s(shepard, g, {.iterations = 1, .noise_sigma = 0.0});
  const Mapping m(g);
  const double t_l = sim_l.run(m, 1).total_seconds;
  const double t_s = sim_s.run(m, 1).total_seconds;
  // Lassen GPUs are also 1.45x faster, so expect > 4x.
  EXPECT_GT(t_s / t_l, 4.0);
}

TEST(SimulatorModel, FrameBufferBandwidthScalesWithEngagedGpus) {
  // Memory-bound group: 4 points on Lassen engage 4 Frame-Buffers.
  const std::uint64_t elements = 64ull << 20;  // 512 MiB
  const TaskGraph g4 = compute_task(4, 1e-9, elements);
  const TaskGraph g1 = compute_task(1, 1e-9, elements);
  const MachineModel lassen = make_lassen(1);
  Simulator sim4(lassen, g4, {.iterations = 1, .noise_sigma = 0.0});
  Simulator sim1(lassen, g1, {.iterations = 1, .noise_sigma = 0.0});
  const double t4 = sim4.run(Mapping(g4), 1).total_seconds;
  const double t1 = sim1.run(Mapping(g1), 1).total_seconds;
  EXPECT_LT(t4, t1 / 2.0);  // ~4x the aggregate bandwidth
}

TEST(SimulatorModel, ChannelContentionSerializesCopies) {
  // Two producer->consumer pairs whose copies share the FB->System
  // channel: the second copy waits for the first.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (16 << 20) - 1), 8);
  const CollectionId c1 =
      g.add_collection(r, "c1", Rect::line(0, (8 << 20) - 1));
  const CollectionId c2 =
      g.add_collection(r, "c2", Rect::line(8 << 20, (16 << 20) - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  const TaskId p1 = g.add_task("p1", 1, cost, {{c1, Privilege::kWriteOnly, 1.0}});
  const TaskId p2 = g.add_task("p2", 1, cost, {{c2, Privilege::kWriteOnly, 1.0}});
  const TaskId s1 = g.add_task("s1", 1, cost, {{c1, Privilege::kReadOnly, 1.0}});
  const TaskId s2 = g.add_task("s2", 1, cost, {{c2, Privilege::kReadOnly, 1.0}});
  g.add_dependence({.producer = p1, .consumer = s1, .producer_collection = c1,
                    .consumer_collection = c1, .bytes = g.collection_bytes(c1)});
  g.add_dependence({.producer = p2, .consumer = s2, .producer_collection = c2,
                    .consumer_collection = c2, .bytes = g.collection_bytes(c2)});

  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});

  Mapping m(g);
  for (const TaskId consumer : {s1, s2}) {
    m.at(consumer).proc = ProcKind::kCpu;
    std::ranges::fill(m.memories(consumer), MemPriority{MemKind::kSystem});
  }
  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok);
  // Each copy is 64 MiB over ~11 GB/s (~6 ms); serialized on the shared
  // channel the makespan must exceed one copy by roughly another copy.
  const double one_copy = (64.0 * (1 << 20)) / 11e9;
  EXPECT_GT(report.total_seconds, 1.7 * one_copy);
}

TEST(SimulatorModel, BlockedDistributionReducesInterNodeTraffic) {
  // A halo-style edge (cross-collection) between distributed tasks moves
  // less data across nodes when both endpoints use a blocked layout.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 20) - 1), 8);
  const CollectionId interior =
      g.add_collection(r, "interior", Rect::line(0, (1 << 20) - 1));
  const CollectionId halo =
      g.add_collection(r, "halo", Rect::line(0, (1 << 18) - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  const TaskId w =
      g.add_task("w", 8, cost, {{interior, Privilege::kWriteOnly, 1.0}});
  const TaskId rd = g.add_task("r", 8, cost, {{halo, Privilege::kReadOnly, 1.0}});
  g.add_dependence({.producer = w, .consumer = rd,
                    .producer_collection = interior,
                    .consumer_collection = halo,
                    .bytes = g.collection_bytes(halo),
                    .internode_fraction = 0.5});

  const MachineModel machine = make_shepard(4);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});

  Mapping rr(g);
  Mapping blocked = rr;
  blocked.at(w).blocked = true;
  blocked.at(rd).blocked = true;

  const auto report_rr = sim.run(rr, 1);
  const auto report_blocked = sim.run(blocked, 1);
  ASSERT_TRUE(report_rr.ok);
  ASSERT_TRUE(report_blocked.ok);
  EXPECT_GT(report_rr.inter_node_copy_bytes,
            report_blocked.inter_node_copy_bytes);
  // Blocked moves exactly fraction * bytes; round-robin 1.6x that.
  EXPECT_EQ(report_blocked.inter_node_copy_bytes,
            g.collection_bytes(halo) / 2);
}

TEST(SimulatorModel, CpuOnlyMachineRunsGpuVariantAppsOnCpu) {
  const TaskGraph g = compute_task(8, 1e-5);
  const MachineModel machine = make_cpu_cluster(2);
  Simulator sim(machine, g, {.iterations = 2, .noise_sigma = 0.0});
  Mapping m(g);
  m.at(TaskId(0)).proc = ProcKind::kCpu;
  std::ranges::fill(m.memories(TaskId(0)), MemPriority{MemKind::kSystem});
  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok);
  EXPECT_GT(report.total_seconds, 0.0);
  // GPU mappings are invalid on this machine.
  Mapping gpu(g);
  EXPECT_FALSE(sim.run(gpu, 1).ok);
}

TEST(SimulatorModel, EnergyIncludesCopyCosts) {
  // Same compute, one mapping with a large copy: more energy.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (32 << 20) - 1), 8);
  const CollectionId c =
      g.add_collection(r, "c", Rect::line(0, (32 << 20) - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-4,
                      .gpu_seconds_per_point = 1e-5};
  const TaskId p = g.add_task("p", 1, cost, {{c, Privilege::kWriteOnly, 0.01}});
  const TaskId s = g.add_task("s", 1, cost, {{c, Privilege::kReadOnly, 0.01}});
  g.add_dependence({.producer = p, .consumer = s, .producer_collection = c,
                    .consumer_collection = c, .bytes = g.collection_bytes(c)});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});

  // Both tasks on the CPU: identical compute power draw; the only energy
  // difference between the two mappings is the inferred copy.
  Mapping no_copy(g);
  for (const TaskId t : {p, s}) {
    no_copy.at(t).proc = ProcKind::kCpu;
    std::ranges::fill(no_copy.memories(t), MemPriority{MemKind::kZeroCopy});
  }
  Mapping with_copy = no_copy;
  std::ranges::fill(with_copy.memories(s), MemPriority{MemKind::kSystem});

  const auto r_no = sim.run(no_copy, 1);
  const auto r_yes = sim.run(with_copy, 1);
  ASSERT_TRUE(r_no.ok);
  ASSERT_TRUE(r_yes.ok);
  EXPECT_EQ(r_no.intra_node_copy_bytes, 0u);
  EXPECT_GT(r_yes.intra_node_copy_bytes, 0u);
  // Copy energy: bytes x 20 pJ/B.
  const double copy_joules =
      static_cast<double>(r_yes.intra_node_copy_bytes) * 20e-12;
  EXPECT_NEAR(r_yes.energy_joules - r_no.energy_joules, copy_joules,
              0.2 * copy_joules);
}

TEST(SimulatorModel, SharedCollectionInstanceCountedOnce) {
  // Two tasks using the same collection in the same kind share one
  // instance: together they must fit where either alone fits.
  TaskGraph g;
  const std::uint64_t elements = 15ull << 27;  // 15 GiB at 8 B/elem
  const RegionId r = g.add_region("r", Rect::line(0, elements - 1), 8);
  const CollectionId c = g.add_collection(r, "big", Rect::line(0, elements - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  g.add_task("a", 4, cost, {{c, Privilege::kReadWrite, 0.1}});
  g.add_task("b", 4, cost, {{c, Privilege::kReadOnly, 0.1}});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});
  // Both in the 16 GiB Frame-Buffer: fits only if counted once.
  const auto report = sim.run(Mapping(g), 1);
  EXPECT_TRUE(report.ok) << report.failure;
  for (const auto& fp : report.footprints) {
    if (fp.kind == MemKind::kFrameBuffer) {
      EXPECT_EQ(fp.peak_instance_bytes, elements * 8);
    }
  }
}

TEST(SimulatorModel, DifferentKindsCreateSeparateInstances) {
  // The same collection in two kinds (GPU task in FB, CPU task in System)
  // occupies capacity in both.
  TaskGraph g;
  const std::uint64_t elements = 1 << 20;
  const RegionId r = g.add_region("r", Rect::line(0, elements - 1), 8);
  const CollectionId c = g.add_collection(r, "x", Rect::line(0, elements - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  const TaskId a = g.add_task("a", 4, cost, {{c, Privilege::kReadWrite, 1.0}});
  const TaskId b = g.add_task("b", 4, cost, {{c, Privilege::kReadOnly, 1.0}});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});

  Mapping m(g);
  m.at(a).proc = ProcKind::kGpu;
  m.at(b).proc = ProcKind::kCpu;
  std::ranges::fill(m.memories(b), MemPriority{MemKind::kSystem});
  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok);
  int kinds_holding_data = 0;
  for (const auto& fp : report.footprints)
    if (fp.peak_instance_bytes > 0) ++kinds_holding_data;
  EXPECT_EQ(kinds_holding_data, 2);
}

TEST(SimulatorModel, DemotionPrefersEarlierPriorityEntries) {
  // Two collections with [FB, ZC] lists where only one fits in FB: the
  // first processed stays, the second demotes, and the report counts it.
  TaskGraph g;
  const std::uint64_t elements = 10ull << 27;  // 10 GiB each
  const RegionId r = g.add_region("r", Rect::line(0, 2 * elements - 1), 8);
  const CollectionId c1 = g.add_collection(r, "c1", Rect::line(0, elements - 1));
  const CollectionId c2 =
      g.add_collection(r, "c2", Rect::line(elements, 2 * elements - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  const TaskId t = g.add_task("t", 4, cost,
                              {{c1, Privilege::kReadWrite, 0.1},
                               {c2, Privilege::kReadWrite, 0.1}});
  const MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});

  Mapping m(g);
  std::ranges::fill(m.memories(t),
                    MemPriority{MemKind::kFrameBuffer, MemKind::kZeroCopy});
  const auto report = sim.run(m, 1);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.demoted_args, 1);
  for (const auto& fp : report.footprints) {
    if (fp.kind == MemKind::kFrameBuffer) {
      EXPECT_EQ(fp.peak_instance_bytes, elements * 8);
    }
    if (fp.kind == MemKind::kZeroCopy) {
      EXPECT_EQ(fp.peak_instance_bytes, elements * 8);
    }
  }
}

TEST(SimulatorModel, CrossIterationEdgesIdleInFirstIteration) {
  // With a single iteration, a purely loop-carried program has no copies.
  TaskGraph g;
  const RegionId r = g.add_region("r", Rect::line(0, (1 << 20) - 1), 8);
  const CollectionId c = g.add_collection(r, "c", Rect::line(0, (1 << 20) - 1));
  const TaskCost cost{.cpu_seconds_per_point = 1e-5,
                      .gpu_seconds_per_point = 1e-6};
  const TaskId a = g.add_task("a", 2, cost, {{c, Privilege::kReadWrite, 1.0}});
  const TaskId b = g.add_task("b", 2, cost, {{c, Privilege::kReadWrite, 1.0}});
  g.add_dependence({.producer = b, .consumer = a, .producer_collection = c,
                    .consumer_collection = c, .bytes = g.collection_bytes(c),
                    .cross_iteration = true});
  const MachineModel machine = make_shepard(1);
  Simulator one(machine, g, {.iterations = 1, .noise_sigma = 0.0});
  Simulator two(machine, g, {.iterations = 2, .noise_sigma = 0.0});

  // Force the cross-iteration edge to need a copy: producer in FB,
  // consumer in ZC.
  Mapping m(g);
  std::ranges::fill(m.memories(a), MemPriority{MemKind::kZeroCopy});
  const auto r1 = one.run(m, 1);
  const auto r2 = two.run(m, 1);
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r1.intra_node_copy_bytes, 0u);  // no previous iteration
  EXPECT_GT(r2.intra_node_copy_bytes, 0u);
}

TEST(SimulatorModel, RuntimeOverheadFloorsIterationTime) {
  const TaskGraph g = compute_task(1, 1e-9, 16);
  MachineModel machine = make_shepard(1);
  Simulator sim(machine, g, {.iterations = 1, .noise_sigma = 0.0});
  const double with_overhead = sim.run(Mapping(g), 1).total_seconds;
  EXPECT_GE(with_overhead, machine.runtime_overhead());
}

}  // namespace
}  // namespace automap
