// Unit tests for the mapping representation: shape, validity (constraint 1),
// hashing, serialization round-trips and diffs.

#include <gtest/gtest.h>

#include "src/machine/machine.hpp"
#include "src/mapping/mapping.hpp"
#include "src/support/error.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {
namespace {

class MappingFixture : public ::testing::Test {
 protected:
  MappingFixture() {
    region = g.add_region("r", Rect::line(0, 999), 8);
    c0 = g.add_collection(region, "c0", Rect::line(0, 499));
    c1 = g.add_collection(region, "c1", Rect::line(400, 999));
    t0 = g.add_task("gpu_friendly", 8,
                    {.cpu_seconds_per_point = 1e-3,
                     .gpu_seconds_per_point = 1e-5},
                    {{c0, Privilege::kReadWrite, 1.0},
                     {c1, Privilege::kReadOnly, 1.0}});
    t1 = g.add_task("cpu_only", 8, {.cpu_seconds_per_point = 1e-3},
                    {{c1, Privilege::kReadWrite, 1.0}});
  }

  TaskGraph g;
  RegionId region;
  CollectionId c0, c1;
  TaskId t0, t1;
  MachineModel machine = make_shepard(2);
};

TEST_F(MappingFixture, DefaultShapeIsGpuFrameBuffer) {
  const Mapping m(g);
  EXPECT_EQ(m.num_tasks(), 2u);
  EXPECT_EQ(m.at(t0).proc, ProcKind::kGpu);
  EXPECT_TRUE(m.at(t0).distribute);
  EXPECT_EQ(m.primary_memory(t0, 0), MemKind::kFrameBuffer);
  EXPECT_EQ(m.at(t0).arg_memories.size(), 2u);
  EXPECT_EQ(m.at(t1).arg_memories.size(), 1u);
}

TEST_F(MappingFixture, ValidityCatchesMissingGpuVariant) {
  Mapping m(g);
  // t1 has no GPU variant but the default shape maps it to GPU.
  const auto violations = m.violations(g, machine);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("cpu_only"), std::string::npos);

  m.at(t1).proc = ProcKind::kCpu;
  m.set_primary_memory(t1, 0, MemKind::kSystem);
  EXPECT_TRUE(m.valid(g, machine));
}

TEST_F(MappingFixture, ValidityCatchesUnaddressableMemory) {
  Mapping m(g);
  m.at(t1).proc = ProcKind::kCpu;
  m.set_primary_memory(t1, 0, MemKind::kFrameBuffer);  // CPU cannot address FB
  EXPECT_FALSE(m.valid(g, machine));
  m.set_primary_memory(t1, 0, MemKind::kZeroCopy);
  EXPECT_TRUE(m.valid(g, machine));
}

TEST_F(MappingFixture, HashChangesWithEveryDecision) {
  Mapping base(g);
  base.at(t1).proc = ProcKind::kCpu;
  base.set_primary_memory(t1, 0, MemKind::kSystem);
  const std::uint64_t h = base.hash();

  Mapping m = base;
  m.at(t0).distribute = false;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.at(t0).blocked = true;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.at(t0).proc = ProcKind::kCpu;
  EXPECT_NE(m.hash(), h);

  m = base;
  m.set_primary_memory(t0, 1, MemKind::kZeroCopy);
  EXPECT_NE(m.hash(), h);

  EXPECT_EQ(base.hash(), h);  // hashing is a pure function
}

TEST_F(MappingFixture, SerializeParseRoundTrip) {
  Mapping m(g);
  m.at(t0).distribute = false;
  m.set_primary_memory(t0, 1, MemKind::kZeroCopy);
  m.at(t1).proc = ProcKind::kCpu;
  m.at(t1).blocked = true;
  m.at(t1).arg_memories[0] = {MemKind::kSystem, MemKind::kZeroCopy};

  const Mapping parsed = Mapping::parse(m.serialize(), g);
  EXPECT_EQ(parsed, m);
  EXPECT_EQ(parsed.hash(), m.hash());
}

TEST_F(MappingFixture, ParseRejectsMalformedText) {
  EXPECT_THROW(Mapping::parse("task 0 dist GPU", g), Error);  // missing args
  EXPECT_THROW(Mapping::parse("task 99 dist GPU FB FB", g), Error);
  EXPECT_THROW(Mapping::parse("nonsense", g), Error);
  EXPECT_THROW(Mapping::parse("", g), Error);  // covers no task
}

TEST_F(MappingFixture, ParseRejectsARepeatedTaskLine) {
  // Two lines for two tasks, but task 0 twice: accepting it would leave
  // task 1 on the constructor default (GPU, which it cannot even run on).
  EXPECT_THROW(Mapping::parse("task 0 dist CPU System System\n"
                              "task 0 leader CPU System System\n",
                              g),
               Error);
  EXPECT_NO_THROW((void)Mapping::parse("task 1 dist CPU System\n"
                                       "task 0 leader CPU System System\n",
                                       g));
}

TEST_F(MappingFixture, PriorityListsSerialize) {
  Mapping m(g);
  m.at(t0).arg_memories[0] = {MemKind::kFrameBuffer, MemKind::kZeroCopy};
  const std::string text = m.serialize();
  EXPECT_NE(text.find("FrameBuffer,ZeroCopy"), std::string::npos);
  EXPECT_EQ(Mapping::parse(text, g), m);
}

TEST_F(MappingFixture, DiffNamesChangedDecisions) {
  Mapping a(g), b(g);
  b.at(t0).proc = ProcKind::kCpu;
  b.set_primary_memory(t1, 0, MemKind::kZeroCopy);
  const auto d = a.diff(b, g);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_NE(d[0].find("gpu_friendly"), std::string::npos);
  EXPECT_NE(d[1].find("cpu_only"), std::string::npos);
  EXPECT_TRUE(a.diff(a, g).empty());
}

TEST_F(MappingFixture, DescribeUsesNames) {
  const Mapping m(g);
  const std::string d = m.describe(g);
  EXPECT_NE(d.find("gpu_friendly"), std::string::npos);
  EXPECT_NE(d.find("FrameBuffer"), std::string::npos);
}

TEST_F(MappingFixture, OutOfRangeAccessThrows) {
  Mapping m(g);
  EXPECT_THROW((void)m.at(TaskId(99)), Error);
  EXPECT_THROW((void)m.primary_memory(t0, 99), Error);
  EXPECT_THROW(m.set_primary_memory(t0, 99, MemKind::kSystem), Error);
}

}  // namespace
}  // namespace automap
