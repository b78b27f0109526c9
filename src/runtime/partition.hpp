#pragma once

// Partitioning helpers for writing applications against the mini-Legion
// Program API. Most task-based codes follow the same pattern: block a
// region into per-piece sub-collections plus halo views of the neighbors'
// boundary data (the overlap structure that drives both the dependence
// analysis and CCD's co-location constraints). This builder constructs
// that structure mechanically.

#include <string>
#include <vector>

#include "src/runtime/program.hpp"

namespace automap {

/// A 1-D block partition with two-sided halos. For piece i:
///  * blocks[i] is the owned sub-range;
///  * halo_lo[i] / halo_hi[i] are read-views of width `halo_width`
///    extending into the neighbouring pieces (absent, i.e. invalid id, at
///    the domain boundary).
struct BlockPartition1D {
  std::vector<CollectionId> blocks;
  std::vector<CollectionId> halo_lo;
  std::vector<CollectionId> halo_hi;
};

/// Partitions [lo, hi] of `region` into `pieces` blocks named
/// "<prefix>_block<i>" with halos "<prefix>_halo_lo/hi<i>". Requires the
/// range to hold at least `pieces` elements and halo_width smaller than
/// the smallest block.
[[nodiscard]] BlockPartition1D make_block_partition_1d(
    Program& program, RegionId region, std::int64_t lo, std::int64_t hi,
    int pieces, std::int64_t halo_width, const std::string& prefix);

}  // namespace automap
