// Unit tests for the mini-Legion program layer: dependence analysis (RAW,
// WAW, loop-carried, halo overlap) and the mapper interface.

#include <gtest/gtest.h>

#include "src/machine/machine.hpp"
#include "src/runtime/mapper.hpp"
#include "src/runtime/program.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

const TaskCost kCost{.cpu_seconds_per_point = 1e-4,
                     .gpu_seconds_per_point = 1e-5};
const TaskCost kCpuOnly{.cpu_seconds_per_point = 1e-4};

TEST(Program, RawEdgeBetweenWriterAndReader) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  const TaskId w = p.launch("writer", 1, kCost,
                            {{c, Privilege::kWriteOnly, 1.0}}, false);
  const TaskId rd = p.launch("reader", 1, kCost,
                             {{c, Privilege::kReadOnly, 1.0}}, false);
  const TaskGraph g = p.lower();
  ASSERT_EQ(g.num_edges(), 1u);
  const DependenceEdge& e = g.edges().front();
  EXPECT_EQ(e.producer, w);
  EXPECT_EQ(e.consumer, rd);
  EXPECT_TRUE(e.carries_data);
  EXPECT_FALSE(e.cross_iteration);
  EXPECT_EQ(e.bytes, 100u * 8u);
  EXPECT_EQ(e.internode_fraction, 0.0);  // same collection: stays in-block
}

TEST(Program, NearestWriterShadowsEarlierOnes) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  p.launch("w1", 1, kCost, {{c, Privilege::kWriteOnly, 1.0}}, false);
  const TaskId w2 =
      p.launch("w2", 1, kCost, {{c, Privilege::kReadWrite, 1.0}}, false);
  const TaskId rd =
      p.launch("reader", 1, kCost, {{c, Privilege::kReadOnly, 1.0}}, false);
  const TaskGraph g = p.lower();
  // w1->w2 (RAW via RW read... w2 reads c so w1->w2), w2->reader; the reader
  // must NOT also depend on w1.
  int into_reader = 0;
  for (const auto& e : g.edges()) {
    if (e.consumer == rd) {
      EXPECT_EQ(e.producer, w2);
      ++into_reader;
    }
  }
  EXPECT_EQ(into_reader, 1);
}

TEST(Program, HaloOverlapCreatesCrossCollectionEdges) {
  Program p;
  const RegionId r = p.add_region("grid", Rect::line(0, 99), 8);
  const CollectionId interior = p.add_collection(r, "interior", Rect::line(0, 99));
  const CollectionId halo = p.add_collection(r, "halo", Rect::line(90, 99));
  const TaskId w = p.launch("update", 4, kCost,
                            {{interior, Privilege::kWriteOnly, 1.0}}, false);
  const TaskId rd = p.launch("exchange", 4, kCost,
                             {{halo, Privilege::kReadOnly, 1.0}}, false);
  const TaskGraph g = p.lower();
  ASSERT_EQ(g.num_edges(), 1u);
  const DependenceEdge& e = g.edges().front();
  EXPECT_EQ(e.producer, w);
  EXPECT_EQ(e.consumer, rd);
  EXPECT_EQ(e.bytes, 10u * 8u);  // only the overlap moves
  EXPECT_EQ(e.internode_fraction, 1.0);  // distinct collections: boundary
}

TEST(Program, WriteAfterWriteOrdersWithoutData) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  const TaskId w1 =
      p.launch("w1", 1, kCost, {{c, Privilege::kWriteOnly, 1.0}}, false);
  const TaskId w2 =
      p.launch("w2", 1, kCost, {{c, Privilege::kWriteOnly, 1.0}}, false);
  const TaskGraph g = p.lower();
  ASSERT_EQ(g.num_edges(), 1u);
  const DependenceEdge& e = g.edges().front();
  EXPECT_EQ(e.producer, w1);
  EXPECT_EQ(e.consumer, w2);
  EXPECT_FALSE(e.carries_data);
}

TEST(Program, LoopCarriedDependenceWrapsAround) {
  // Classic iterative kernel: step reads what it wrote last iteration.
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  const TaskId step =
      p.launch("step", 4, kCost, {{c, Privilege::kReadWrite, 1.0}});
  const TaskGraph g = p.lower();
  ASSERT_EQ(g.num_edges(), 1u);
  const DependenceEdge& e = g.edges().front();
  EXPECT_EQ(e.producer, step);
  EXPECT_EQ(e.consumer, step);
  EXPECT_TRUE(e.cross_iteration);
}

TEST(Program, TwoPhaseLoopHasForwardAndBackwardEdges) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  const TaskId a = p.launch("phase_a", 4, kCost,
                            {{c, Privilege::kReadWrite, 1.0}});
  const TaskId b = p.launch("phase_b", 4, kCost,
                            {{c, Privilege::kReadWrite, 1.0}});
  const TaskGraph g = p.lower();
  bool forward = false, backward = false;
  for (const auto& e : g.edges()) {
    if (e.producer == a && e.consumer == b && !e.cross_iteration)
      forward = true;
    if (e.producer == b && e.consumer == a && e.cross_iteration)
      backward = true;
  }
  EXPECT_TRUE(forward);
  EXPECT_TRUE(backward);
  EXPECT_NO_THROW(g.validate());
}

TEST(Program, SetupTasksOutsideLoopGetNoLoopCarriedEdges) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 99));
  const TaskId init = p.launch("init", 1, kCpuOnly,
                               {{c, Privilege::kWriteOnly, 1.0}}, false);
  const TaskId step =
      p.launch("step", 4, kCost, {{c, Privilege::kReadWrite, 1.0}}, true);
  const TaskGraph g = p.lower();
  for (const auto& e : g.edges()) {
    if (e.consumer == init) FAIL() << "init must not gain incoming edges";
    if (e.producer == init) {
      EXPECT_EQ(e.consumer, step);
      EXPECT_FALSE(e.cross_iteration);
    }
  }
}

TEST(Program, DisjointCollectionsStayIndependent) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 99), 8);
  const CollectionId left = p.add_collection(r, "left", Rect::line(0, 49));
  const CollectionId right = p.add_collection(r, "right", Rect::line(50, 99));
  p.launch("wl", 1, kCost, {{left, Privilege::kWriteOnly, 1.0}}, false);
  p.launch("rr", 1, kCost, {{right, Privilege::kReadOnly, 1.0}}, false);
  EXPECT_EQ(p.lower().num_edges(), 0u);
}

TEST(Program, LoweredGraphMatchesFigureFiveCountsShape) {
  // The lowered graph exposes exactly the task/collection-arg counts the
  // search space is built from.
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 999), 8);
  const CollectionId c0 = p.add_collection(r, "c0", Rect::line(0, 499));
  const CollectionId c1 = p.add_collection(r, "c1", Rect::line(500, 999));
  p.launch("t0", 2, kCost,
           {{c0, Privilege::kReadWrite, 1.0}, {c1, Privilege::kReadOnly, 1.0}});
  p.launch("t1", 2, kCost, {{c1, Privilege::kReadWrite, 1.0}});
  const TaskGraph g = p.lower();
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.num_collection_args(), 3u);
}

TEST(Mapper, DefaultMapperUsesGpuAndFrameBuffer) {
  Program p;
  const RegionId r = p.add_region("r", Rect::line(0, 999), 8);
  const CollectionId c = p.add_collection(r, "c", Rect::line(0, 999));
  p.launch("gpu_task", 2, kCost, {{c, Privilege::kReadWrite, 1.0}});
  p.launch("cpu_task", 2, kCpuOnly, {{c, Privilege::kReadOnly, 1.0}});
  const TaskGraph g = p.lower();
  const MachineModel machine = make_shepard(1);

  DefaultMapper mapper;
  const Mapping m = mapper.map_all(g, machine);
  EXPECT_TRUE(m.valid(g, machine));
  EXPECT_EQ(m.at(TaskId(0)).proc, ProcKind::kGpu);
  EXPECT_EQ(m.primary_memory(TaskId(0), 0), MemKind::kFrameBuffer);
  // Tasks without a GPU variant fall back to CPU + System.
  EXPECT_EQ(m.at(TaskId(1)).proc, ProcKind::kCpu);
  EXPECT_EQ(m.primary_memory(TaskId(1), 0), MemKind::kSystem);
}

}  // namespace
}  // namespace automap
