// Unit tests for the machine model and the Shepard/Lassen presets.

#include <gtest/gtest.h>

#include "src/machine/machine.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

TEST(Kinds, RoundTripNames) {
  EXPECT_EQ(to_string(ProcKind::kCpu), "CPU");
  EXPECT_EQ(to_string(ProcKind::kGpu), "GPU");
  EXPECT_EQ(parse_proc_kind("cpu"), ProcKind::kCpu);
  EXPECT_EQ(parse_proc_kind("GPU"), ProcKind::kGpu);
  EXPECT_EQ(parse_mem_kind("System"), MemKind::kSystem);
  EXPECT_EQ(parse_mem_kind("ZC"), MemKind::kZeroCopy);
  EXPECT_EQ(parse_mem_kind("fb"), MemKind::kFrameBuffer);
  EXPECT_THROW((void)parse_proc_kind("TPU"), Error);
  EXPECT_THROW((void)parse_mem_kind("HBM3"), Error);
}

TEST(Machine, ShepardShape) {
  const MachineModel m = make_shepard(2);
  EXPECT_EQ(m.num_nodes(), 2);
  EXPECT_TRUE(m.has_proc_kind(ProcKind::kCpu));
  EXPECT_TRUE(m.has_proc_kind(ProcKind::kGpu));
  EXPECT_EQ(m.procs_per_node(ProcKind::kGpu), 1);   // one P100
  EXPECT_EQ(m.procs_per_node(ProcKind::kCpu), 48);  // 56 minus 8 reserved
  EXPECT_EQ(m.mems_per_node(MemKind::kSystem), 2);  // one per socket
  EXPECT_EQ(m.mems_per_node(MemKind::kZeroCopy), 1);
  EXPECT_EQ(m.mems_per_node(MemKind::kFrameBuffer), 1);
  EXPECT_EQ(m.mem_capacity(MemKind::kFrameBuffer), 16ull << 30);
  EXPECT_EQ(m.mem_capacity(MemKind::kZeroCopy), 60ull << 30);
}

TEST(Machine, LassenShape) {
  const MachineModel m = make_lassen(4);
  EXPECT_EQ(m.procs_per_node(ProcKind::kGpu), 4);  // four V100s
  EXPECT_EQ(m.mems_per_node(MemKind::kFrameBuffer), 4);
  EXPECT_EQ(m.mem_capacity(MemKind::kFrameBuffer), 16ull << 30);
  EXPECT_EQ(m.num_nodes(), 4);
}

TEST(Machine, AddressabilityMatrix) {
  const MachineModel m = make_shepard(1);
  EXPECT_TRUE(m.addressable(ProcKind::kCpu, MemKind::kSystem));
  EXPECT_TRUE(m.addressable(ProcKind::kCpu, MemKind::kZeroCopy));
  EXPECT_FALSE(m.addressable(ProcKind::kCpu, MemKind::kFrameBuffer));
  EXPECT_TRUE(m.addressable(ProcKind::kGpu, MemKind::kFrameBuffer));
  EXPECT_TRUE(m.addressable(ProcKind::kGpu, MemKind::kZeroCopy));
  EXPECT_FALSE(m.addressable(ProcKind::kGpu, MemKind::kSystem));
}

TEST(Machine, MemoriesAddressableListsAreOrdered) {
  const MachineModel m = make_shepard(1);
  const auto cpu_mems = m.memories_addressable_by(ProcKind::kCpu);
  ASSERT_EQ(cpu_mems.size(), 2u);
  EXPECT_EQ(cpu_mems[0], MemKind::kSystem);
  EXPECT_EQ(cpu_mems[1], MemKind::kZeroCopy);
  const auto gpu_mems = m.memories_addressable_by(ProcKind::kGpu);
  ASSERT_EQ(gpu_mems.size(), 2u);
}

TEST(Machine, BestMemoryIsHighestBandwidth) {
  const MachineModel m = make_shepard(1);
  EXPECT_EQ(m.best_memory_for(ProcKind::kGpu), MemKind::kFrameBuffer);
  EXPECT_EQ(m.best_memory_for(ProcKind::kCpu), MemKind::kSystem);
}

TEST(Machine, ZeroCopySlowerThanFrameBufferForGpu) {
  for (const auto& m : {make_shepard(1), make_lassen(1)}) {
    const double fb =
        m.affinity(ProcKind::kGpu, MemKind::kFrameBuffer).bandwidth_bytes_per_s;
    const double zc =
        m.affinity(ProcKind::kGpu, MemKind::kZeroCopy).bandwidth_bytes_per_s;
    EXPECT_GT(fb, 5.0 * zc) << m.name();
  }
}

TEST(Machine, LassenNarrowsTheZeroCopyGap) {
  // NVLink makes GPU->ZeroCopy relatively faster on Lassen than on Shepard.
  const MachineModel s = make_shepard(1);
  const MachineModel l = make_lassen(1);
  auto ratio = [](const MachineModel& m) {
    return m.affinity(ProcKind::kGpu, MemKind::kFrameBuffer)
               .bandwidth_bytes_per_s /
           m.affinity(ProcKind::kGpu, MemKind::kZeroCopy)
               .bandwidth_bytes_per_s;
  };
  EXPECT_LT(ratio(l), ratio(s));
}

TEST(Machine, InterNodeChannelsSlowerThanIntra) {
  const MachineModel m = make_shepard(2);
  const Channel intra = m.channel(MemKind::kSystem, MemKind::kSystem, false);
  const Channel inter = m.channel(MemKind::kSystem, MemKind::kSystem, true);
  EXPECT_GT(intra.bandwidth_bytes_per_s, inter.bandwidth_bytes_per_s);
  EXPECT_LT(intra.latency_s, inter.latency_s);
}

TEST(Machine, ChannelsAreSymmetric) {
  const MachineModel m = make_lassen(2);
  for (const MemKind a : kAllMemKinds) {
    for (const MemKind b : kAllMemKinds) {
      for (const bool inter : {false, true}) {
        const Channel ab = m.channel(a, b, inter);
        const Channel ba = m.channel(b, a, inter);
        EXPECT_EQ(ab.bandwidth_bytes_per_s, ba.bandwidth_bytes_per_s);
      }
    }
  }
}

TEST(Machine, ValidatesMalformedMachines) {
  MachineModel m("broken", 1);
  EXPECT_THROW(m.validate(), Error);  // no processors at all

  m.add_proc_group({.kind = ProcKind::kCpu, .count_per_node = 4});
  m.add_mem_group({.kind = MemKind::kSystem,
                   .count_per_node = 1,
                   .capacity_bytes = 1 << 20});
  // CPU declared but no affinity to any memory.
  EXPECT_THROW(m.validate(), Error);

  m.set_affinity(ProcKind::kCpu, MemKind::kSystem, {1e9, 0.0});
  // Missing System<->System channel.
  EXPECT_THROW(m.validate(), Error);

  m.set_channel(MemKind::kSystem, MemKind::kSystem, false, {1e9, 0.0});
  EXPECT_NO_THROW(m.validate());
}

TEST(Machine, RejectsDuplicateGroupsAndBadParameters) {
  MachineModel m("dup", 1);
  m.add_proc_group({.kind = ProcKind::kCpu, .count_per_node = 1});
  EXPECT_THROW(
      m.add_proc_group({.kind = ProcKind::kCpu, .count_per_node = 2}), Error);
  EXPECT_THROW(
      m.add_proc_group({.kind = ProcKind::kGpu, .count_per_node = 0}), Error);
  EXPECT_THROW(m.add_mem_group({.kind = MemKind::kSystem,
                                .count_per_node = 1,
                                .capacity_bytes = 0}),
               Error);
  EXPECT_THROW(MachineModel("empty", 0), Error);
}

TEST(Machine, QueriesOnMissingKindsThrow) {
  MachineModel m("cpu-only", 1);
  m.add_proc_group({.kind = ProcKind::kCpu, .count_per_node = 2});
  m.add_mem_group({.kind = MemKind::kSystem,
                   .count_per_node = 1,
                   .capacity_bytes = 1 << 20});
  m.set_affinity(ProcKind::kCpu, MemKind::kSystem, {1e9, 0.0});
  EXPECT_THROW((void)m.proc_group(ProcKind::kGpu), Error);
  EXPECT_THROW((void)m.mem_group(MemKind::kFrameBuffer), Error);
  EXPECT_THROW((void)m.affinity(ProcKind::kGpu, MemKind::kFrameBuffer), Error);
}

TEST(Machine, DescribeMentionsComponents) {
  const std::string d = make_shepard(2).describe();
  EXPECT_NE(d.find("shepard"), std::string::npos);
  EXPECT_NE(d.find("GPU"), std::string::npos);
  EXPECT_NE(d.find("FrameBuffer"), std::string::npos);
}

}  // namespace
}  // namespace automap
