// Unit tests for rectangles, collections, group tasks, dependence edges and
// the induced collection overlap graph.

#include <gtest/gtest.h>

#include "src/support/error.hpp"
#include "src/taskgraph/rect.hpp"
#include "src/taskgraph/task_graph.hpp"

namespace automap {
namespace {

TEST(Rect, VolumeAndEmptiness) {
  EXPECT_EQ(Rect::line(0, 9).volume(), 10u);
  EXPECT_EQ(Rect::plane(0, 9, 0, 4).volume(), 50u);
  EXPECT_EQ(Rect::box(0, 1, 0, 1, 0, 1).volume(), 8u);
  EXPECT_TRUE(Rect::line(5, 4).empty());
  EXPECT_EQ(Rect::line(5, 4).volume(), 0u);
}

TEST(Rect, IntersectionIsCommutativeAndClipped) {
  const Rect a = Rect::plane(0, 9, 0, 9);
  const Rect b = Rect::plane(5, 14, 3, 7);
  const Rect ab = a.intersect(b);
  const Rect ba = b.intersect(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.volume(), 5u * 5u);
  EXPECT_TRUE(a.intersect(Rect::plane(20, 30, 20, 30)).empty());
}

TEST(Rect, OverlapsAndContains) {
  const Rect a = Rect::line(0, 9);
  EXPECT_FALSE(a.intersect(Rect::line(9, 20)).empty());
  EXPECT_TRUE(a.intersect(Rect::line(10, 20)).empty());
  EXPECT_TRUE(a.contains(Rect::line(2, 5)));
  EXPECT_FALSE(a.contains(Rect::line(5, 12)));
  EXPECT_FALSE(a.contains(Rect::line(9, 5)));  // empty rect not contained
}

TEST(Rect, MismatchedDimsThrow) {
  EXPECT_THROW((void)Rect::line(0, 1).intersect(Rect::plane(0, 1, 0, 1)), Error);
}

class TaskGraphFixture : public ::testing::Test {
 protected:
  TaskGraph g;
  RegionId region = g.add_region("grid", Rect::line(0, 99), 8);
  CollectionId interior = g.add_collection(region, "interior", Rect::line(10, 89));
  CollectionId halo_lo = g.add_collection(region, "halo_lo", Rect::line(0, 19));
  CollectionId halo_hi = g.add_collection(region, "halo_hi", Rect::line(80, 99));
};

TEST_F(TaskGraphFixture, CollectionBytes) {
  EXPECT_EQ(g.collection_bytes(interior), 80u * 8u);
  EXPECT_EQ(g.collection_bytes(halo_lo), 20u * 8u);
}

TEST_F(TaskGraphFixture, OverlapBytes) {
  EXPECT_EQ(g.overlap_bytes(interior, halo_lo), 10u * 8u);
  EXPECT_EQ(g.overlap_bytes(interior, halo_hi), 10u * 8u);
  EXPECT_EQ(g.overlap_bytes(halo_lo, halo_hi), 0u);
  // Collections in different regions never overlap.
  const RegionId other = g.add_region("other", Rect::line(0, 99), 8);
  const CollectionId c2 = g.add_collection(other, "same-span", Rect::line(0, 99));
  EXPECT_EQ(g.overlap_bytes(interior, c2), 0u);
}

TEST_F(TaskGraphFixture, OverlapGraphListsWeightedEdgesOnce) {
  const auto edges = g.build_overlap_graph();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& e : edges) {
    EXPECT_LT(e.a, e.b);
    EXPECT_EQ(e.weight_bytes, 10u * 8u);
  }
}

TEST_F(TaskGraphFixture, CollectionArgCount) {
  g.add_task("a", 4, {.cpu_seconds_per_point = 1e-3},
             {{interior, Privilege::kReadWrite, 1.0}});
  g.add_task("b", 4, {.cpu_seconds_per_point = 1e-3},
             {{interior, Privilege::kReadOnly, 1.0},
              {halo_lo, Privilege::kReadOnly, 1.0}});
  EXPECT_EQ(g.num_collection_args(), 3u);
  EXPECT_EQ(g.num_tasks(), 2u);
  // The one argument numbering: task t owns [off[t], off[t + 1]), and an
  // argument appended to an earlier task renumbers every later one.
  EXPECT_EQ(g.arg_offsets(), (std::vector<std::uint32_t>{0, 1, 3}));
  g.append_task_arg(TaskId(0), {halo_hi, Privilege::kReadOnly, 1.0});
  EXPECT_EQ(g.arg_offsets(), (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(g.num_collection_args(), 4u);
}

TEST_F(TaskGraphFixture, TopologicalOrderRespectsEdges) {
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3},
                              {{interior, Privilege::kWriteOnly, 1.0}});
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3},
                              {{interior, Privilege::kReadOnly, 1.0}});
  g.add_dependence({.producer = a,
                    .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior,
                    .bytes = 640});
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
}

TEST_F(TaskGraphFixture, CycleDetection) {
  const std::vector<CollectionUse> rw = {
      {interior, Privilege::kReadWrite, 1.0}};
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3}, rw);
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3}, rw);
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 1});
  g.add_dependence({.producer = b, .consumer = a,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 1});
  EXPECT_THROW(g.validate(), Error);
}

TEST_F(TaskGraphFixture, CycleErrorNamesTheTasksOnTheCycle) {
  // c feeds a cycle b -> d -> b; a is upstream of it. The error names the
  // cycle's tasks only, from the lowest index, in edge order.
  const std::vector<CollectionUse> rw = {
      {interior, Privilege::kReadWrite, 1.0}};
  const auto task = [&](const char* name) {
    return g.add_task(name, 1, {.cpu_seconds_per_point = 1e-3}, rw);
  };
  const TaskId a = task("a"), b = task("b"), c = task("c"), d = task("d");
  const auto edge = [&](TaskId from, TaskId to) {
    g.add_dependence({.producer = from, .consumer = to,
                      .producer_collection = interior,
                      .consumer_collection = interior, .bytes = 1});
  };
  edge(a, c);
  edge(c, b);
  edge(b, d);
  edge(d, b);
  try {
    g.validate();
    FAIL() << "expected a cycle error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "invalid task graph: same-iteration dependence cycle: "
                 "task 1 'b' -> task 3 'd' -> task 1 'b'");
  }
}

TEST_F(TaskGraphFixture, EdgeOnACollectionItsTaskLacksIsAnError) {
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3},
                              {{interior, Privilege::kWriteOnly, 1.0}});
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3},
                              {{halo_lo, Privilege::kReadOnly, 1.0}});
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 80});
  try {
    g.validate();
    FAIL() << "expected an edge error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "invalid task graph: edge 0: consumer task 1 'b' does not "
                 "take collection 0 'interior' as an argument");
  }
}

TEST_F(TaskGraphFixture, CrossIterationEdgesDoNotFormCycles) {
  const std::vector<CollectionUse> rw = {
      {interior, Privilege::kReadWrite, 1.0}};
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3}, rw);
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3}, rw);
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 1});
  g.add_dependence({.producer = b, .consumer = a,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 1,
                    .cross_iteration = true});
  EXPECT_NO_THROW(g.validate());
}

TEST_F(TaskGraphFixture, IncomingOutgoingQueries) {
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3}, {});
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3}, {});
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 8});
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].producer, a);
  EXPECT_EQ(g.edges()[0].consumer, b);
}

TEST_F(TaskGraphFixture, RejectsMalformedInput) {
  // Collection outside its region.
  EXPECT_THROW(g.add_collection(region, "oob", Rect::line(50, 150)), Error);
  // Zero points.
  EXPECT_THROW(
      g.add_task("bad", 0, {.cpu_seconds_per_point = 1e-3}, {}), Error);
  // Missing CPU variant (every task must be executable somewhere).
  EXPECT_THROW(g.add_task("bad", 1, {.cpu_seconds_per_point = 0.0}, {}),
               Error);
  // access_fraction outside (0, 1].
  EXPECT_THROW(g.add_task("bad", 1, {.cpu_seconds_per_point = 1e-3},
                          {{interior, Privilege::kReadOnly, 0.0}}),
               Error);
  // Unknown ids.
  EXPECT_THROW((void)g.collection(CollectionId(999)), Error);
  EXPECT_THROW((void)g.task(TaskId(999)), Error);
  // Data edge with zero bytes.
  const TaskId a = g.add_task("a", 1, {.cpu_seconds_per_point = 1e-3}, {});
  const TaskId b = g.add_task("b", 1, {.cpu_seconds_per_point = 1e-3}, {});
  g.add_dependence({.producer = a, .consumer = b,
                    .producer_collection = interior,
                    .consumer_collection = interior, .bytes = 0});
  EXPECT_THROW(g.validate(), Error);
}

TEST_F(TaskGraphFixture, PrivilegeHelpers) {
  EXPECT_TRUE(reads(Privilege::kReadOnly));
  EXPECT_TRUE(reads(Privilege::kReadWrite));
  EXPECT_FALSE(reads(Privilege::kWriteOnly));
  EXPECT_TRUE(writes(Privilege::kWriteOnly));
  EXPECT_TRUE(writes(Privilege::kReduce));
  EXPECT_FALSE(writes(Privilege::kReadOnly));
}

TEST_F(TaskGraphFixture, GpuVariantFlag) {
  TaskCost no_gpu{.cpu_seconds_per_point = 1e-3};
  EXPECT_FALSE(no_gpu.has_gpu_variant());
  TaskCost with_gpu{.cpu_seconds_per_point = 1e-3,
                    .gpu_seconds_per_point = 1e-5};
  EXPECT_TRUE(with_gpu.has_gpu_variant());
}

TEST_F(TaskGraphFixture, DescribeListsEntities) {
  g.add_task("solver", 4, {.cpu_seconds_per_point = 1e-3},
             {{interior, Privilege::kReadWrite, 1.0}});
  const std::string d = g.describe();
  EXPECT_NE(d.find("solver"), std::string::npos);
  EXPECT_NE(d.find("interior"), std::string::npos);
}

}  // namespace
}  // namespace automap
