// Tests for the block-partition builder and the app registry.

#include <gtest/gtest.h>

#include "src/apps/registry.hpp"
#include "src/runtime/partition.hpp"
#include "src/runtime/program.hpp"
#include "src/support/error.hpp"

namespace automap {
namespace {

class PartitionFixture : public ::testing::Test {
 protected:
  /// The partition's collections as a task graph, which needs a task.
  TaskGraph lower() {
    p.launch("t", 1, {.cpu_seconds_per_point = 1e-3}, {});
    return p.lower();
  }

  Program p;
  RegionId region = p.add_region("r", Rect::line(0, 999), 8);
};

TEST_F(PartitionFixture, BlocksTileTheRangeExactly) {
  const auto part = make_block_partition_1d(p, region, 0, 999, 4, 2, "f");
  ASSERT_EQ(part.blocks.size(), 4u);
  const TaskGraph g = lower();
  std::int64_t expected_lo = 0;
  std::uint64_t total = 0;
  for (const CollectionId block : part.blocks) {
    const Rect r = g.collection(block).rect;
    EXPECT_EQ(r.lo[0], expected_lo);
    expected_lo = r.hi[0] + 1;
    total += r.volume();
  }
  EXPECT_EQ(expected_lo, 1000);
  EXPECT_EQ(total, 1000u);
}

TEST_F(PartitionFixture, HalosOverlapNeighbourBlocksOnly) {
  const auto part = make_block_partition_1d(p, region, 0, 999, 4, 3, "f");
  const TaskGraph g = lower();
  for (std::size_t i = 0; i < part.blocks.size(); ++i) {
    if (part.halo_lo[i].valid()) {
      // A low halo overlaps exactly the previous block, by halo_width.
      EXPECT_EQ(g.overlap_bytes(part.halo_lo[i], part.blocks[i - 1]),
                3u * 8u);
      EXPECT_EQ(g.overlap_bytes(part.halo_lo[i], part.blocks[i]), 0u);
    }
    if (part.halo_hi[i].valid()) {
      EXPECT_EQ(g.overlap_bytes(part.halo_hi[i], part.blocks[i + 1]),
                3u * 8u);
      EXPECT_EQ(g.overlap_bytes(part.halo_hi[i], part.blocks[i]), 0u);
    }
  }
}

TEST_F(PartitionFixture, BoundaryPiecesLackOuterHalos) {
  const auto part = make_block_partition_1d(p, region, 0, 999, 4, 2, "f");
  EXPECT_FALSE(part.halo_lo.front().valid());
  EXPECT_TRUE(part.halo_hi.front().valid());
  EXPECT_TRUE(part.halo_lo.back().valid());
  EXPECT_FALSE(part.halo_hi.back().valid());
}

TEST_F(PartitionFixture, ZeroHaloWidthProducesNoHalos) {
  const auto part = make_block_partition_1d(p, region, 0, 999, 4, 0, "f");
  for (std::size_t i = 0; i < part.blocks.size(); ++i) {
    EXPECT_FALSE(part.halo_lo[i].valid());
    EXPECT_FALSE(part.halo_hi[i].valid());
  }
}

TEST_F(PartitionFixture, UnevenSplitsCoverEverything) {
  const auto part = make_block_partition_1d(p, region, 0, 999, 7, 1, "f");
  const TaskGraph g = lower();
  std::uint64_t total = 0;
  for (const CollectionId block : part.blocks)
    total += g.collection(block).rect.volume();
  EXPECT_EQ(total, 1000u);
}

TEST_F(PartitionFixture, RejectsDegenerateInputs) {
  EXPECT_THROW(make_block_partition_1d(p, region, 0, 999, 0, 1, "f"), Error);
  EXPECT_THROW(make_block_partition_1d(p, region, 10, 9, 1, 0, "f"), Error);
  EXPECT_THROW(make_block_partition_1d(p, region, 0, 9, 20, 0, "f"), Error);
  EXPECT_THROW(make_block_partition_1d(p, region, 0, 999, 4, -1, "f"),
               Error);
  // Halo wider than the smallest block.
  EXPECT_THROW(make_block_partition_1d(p, region, 0, 999, 4, 300, "f"),
               Error);
}

TEST(Registry, KnowsAllFiveApps) {
  EXPECT_EQ(app_names().size(), 5u);
  for (const std::string& name : app_names()) {
    EXPECT_TRUE(is_app_name(name));
    EXPECT_GT(app_num_steps(name), 0);
    const BenchmarkApp app = make_app_by_name(name, 1, 0);
    EXPECT_EQ(app.name, name);
    EXPECT_NO_THROW(app.graph.validate());
  }
  EXPECT_FALSE(is_app_name("spark"));
  EXPECT_THROW((void)app_num_steps("spark"), Error);
  EXPECT_THROW((void)make_app_by_name("circuit", 1, 99), Error);
}

TEST(Registry, MaestroStepsSelectSampleCounts) {
  const BenchmarkApp a = make_app_by_name("maestro", 1, 0);
  const BenchmarkApp b = make_app_by_name("maestro", 1, 2);
  // 8 vs 32 LF samples -> same task count, different group sizes.
  EXPECT_EQ(a.graph.num_tasks(), b.graph.num_tasks());
  int points_a = 0, points_b = 0;
  for (const GroupTask& t : a.graph.tasks())
    if (t.name.rfind("lf_", 0) == 0) points_a = t.num_points;
  for (const GroupTask& t : b.graph.tasks())
    if (t.name.rfind("lf_", 0) == 0) points_b = t.num_points;
  EXPECT_EQ(points_a, 8);
  EXPECT_EQ(points_b, 32);
}

}  // namespace
}  // namespace automap
