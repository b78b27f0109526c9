#include "src/runtime/partition.hpp"

#include "src/support/error.hpp"

namespace automap {

BlockPartition1D make_block_partition_1d(Program& program, RegionId region,
                                         std::int64_t lo, std::int64_t hi,
                                         int pieces, std::int64_t halo_width,
                                         const std::string& prefix) {
  AM_REQUIRE(pieces > 0, "need at least one piece");
  AM_REQUIRE(hi >= lo, "empty range");
  const std::int64_t extent = hi - lo + 1;
  AM_REQUIRE(extent >= pieces, "fewer elements than pieces");
  AM_REQUIRE(halo_width >= 0, "negative halo width");
  AM_REQUIRE(halo_width <= extent / pieces,
             "halo wider than the smallest block");

  BlockPartition1D part;
  part.blocks.reserve(static_cast<std::size_t>(pieces));
  part.halo_lo.reserve(static_cast<std::size_t>(pieces));
  part.halo_hi.reserve(static_cast<std::size_t>(pieces));

  for (int i = 0; i < pieces; ++i) {
    const std::int64_t block_lo = lo + extent * i / pieces;
    const std::int64_t block_hi = lo + extent * (i + 1) / pieces - 1;
    part.blocks.push_back(program.add_collection(
        region, prefix + "_block" + std::to_string(i),
        Rect::line(block_lo, block_hi)));

    // Halo views extend into the neighbours' blocks.
    if (i > 0 && halo_width > 0) {
      part.halo_lo.push_back(program.add_collection(
          region, prefix + "_halo_lo" + std::to_string(i),
          Rect::line(block_lo - halo_width, block_lo - 1)));
    } else {
      part.halo_lo.push_back(CollectionId());
    }
    if (i + 1 < pieces && halo_width > 0) {
      part.halo_hi.push_back(program.add_collection(
          region, prefix + "_halo_hi" + std::to_string(i),
          Rect::line(block_hi + 1, block_hi + halo_width)));
    } else {
      part.halo_hi.push_back(CollectionId());
    }
  }
  return part;
}

}  // namespace automap
