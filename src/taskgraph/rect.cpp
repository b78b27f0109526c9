#include "src/taskgraph/rect.hpp"

#include <algorithm>

#include "src/support/error.hpp"

namespace automap {

Rect Rect::line(std::int64_t l, std::int64_t h) {
  Rect r;
  r.dims = 1;
  r.lo = {l, 0, 0};
  r.hi = {h, 0, 0};
  return r;
}

Rect Rect::plane(std::int64_t lx, std::int64_t hx, std::int64_t ly,
                 std::int64_t hy) {
  Rect r;
  r.dims = 2;
  r.lo = {lx, ly, 0};
  r.hi = {hx, hy, 0};
  return r;
}

Rect Rect::box(std::int64_t lx, std::int64_t hx, std::int64_t ly,
               std::int64_t hy, std::int64_t lz, std::int64_t hz) {
  Rect r;
  r.dims = 3;
  r.lo = {lx, ly, lz};
  r.hi = {hx, hy, hz};
  return r;
}

bool Rect::empty() const {
  for (int d = 0; d < dims; ++d)
    if (lo[d] > hi[d]) return true;
  return false;
}

std::uint64_t Rect::volume() const {
  if (empty()) return 0;
  std::uint64_t v = 1;
  for (int d = 0; d < dims; ++d)
    v *= static_cast<std::uint64_t>(hi[d] - lo[d] + 1);
  return v;
}

Rect Rect::intersect(const Rect& other) const {
  AM_REQUIRE(dims == other.dims,
             "intersect requires equal dimensionality");
  Rect out;
  out.dims = dims;
  for (int d = 0; d < dims; ++d) {
    out.lo[d] = std::max(lo[d], other.lo[d]);
    out.hi[d] = std::min(hi[d], other.hi[d]);
  }
  return out;
}

bool Rect::contains(const Rect& other) const {
  if (dims != other.dims || other.empty()) return false;
  for (int d = 0; d < dims; ++d)
    if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
  return true;
}

bool Rect::operator==(const Rect& other) const {
  if (dims != other.dims) return false;
  for (int d = 0; d < dims; ++d)
    if (lo[d] != other.lo[d] || hi[d] != other.hi[d]) return false;
  return true;
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  os << "[";
  for (int d = 0; d < r.dims; ++d) {
    if (d > 0) os << " x ";
    os << r.lo[d] << ".." << r.hi[d];
  }
  return os << "]";
}

}  // namespace automap
