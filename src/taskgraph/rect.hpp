#pragma once

// Dense multi-dimensional rectangles.
//
// Collections are (sub-)rectangles of a region's index space; collection
// overlap — the quantity CCD's co-location constraints are built from — is
// the volume of the rectangle intersection times the element size.

#include <array>
#include <cstdint>
#include <ostream>

namespace automap {

/// Closed integer rectangle in up to 3 dimensions: [lo[d], hi[d]] per dim.
/// An empty rectangle is represented by any dimension with lo > hi.
struct Rect {
  static constexpr int kMaxDims = 3;

  int dims = 1;
  std::array<std::int64_t, kMaxDims> lo{{0, 0, 0}};
  std::array<std::int64_t, kMaxDims> hi{{-1, 0, 0}};

  /// 1-D rectangle [l, h].
  [[nodiscard]] static Rect line(std::int64_t l, std::int64_t h);
  /// 2-D rectangle [lx, hx] x [ly, hy].
  [[nodiscard]] static Rect plane(std::int64_t lx, std::int64_t hx,
                                  std::int64_t ly, std::int64_t hy);
  /// 3-D rectangle.
  [[nodiscard]] static Rect box(std::int64_t lx, std::int64_t hx,
                                std::int64_t ly, std::int64_t hy,
                                std::int64_t lz, std::int64_t hz);

  [[nodiscard]] bool empty() const;
  /// Number of points; 0 when empty.
  [[nodiscard]] std::uint64_t volume() const;
  /// Component-wise intersection (same dimensionality required).
  [[nodiscard]] Rect intersect(const Rect& other) const;
  /// True when other is fully contained in *this.
  [[nodiscard]] bool contains(const Rect& other) const;

  bool operator==(const Rect& other) const;
};

std::ostream& operator<<(std::ostream& os, const Rect& r);

}  // namespace automap
