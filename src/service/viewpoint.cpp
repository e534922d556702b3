#include "service/viewpoint.hpp"

#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace thsr::service {

Viewpoint canonical(const Viewpoint& vp) {
  if (vp.dir_x == 0 && vp.dir_y == 0) {
    throw std::invalid_argument("Viewpoint: direction must be nonzero");
  }
  if (vp.elev_den == 0) {
    throw std::invalid_argument("Viewpoint: elevation denominator must be nonzero");
  }
  // INT64_MIN has no i64 negation or absolute value, which the reduction
  // below takes of every component.
  constexpr i64 kMin = std::numeric_limits<i64>::min();
  if (vp.dir_x == kMin || vp.dir_y == kMin || vp.elev_num == kMin || vp.elev_den == kMin) {
    throw std::invalid_argument("Viewpoint: components must be greater than INT64_MIN");
  }
  Viewpoint c = vp;
  const i64 g = std::gcd(std::abs(c.dir_x), std::abs(c.dir_y));
  c.dir_x /= g;
  c.dir_y /= g;
  if (c.elev_den < 0) {
    c.elev_den = -c.elev_den;
    c.elev_num = -c.elev_num;
  }
  if (c.elev_num == 0) {
    c.elev_den = 1;
  } else {
    const i64 ge = std::gcd(std::abs(c.elev_num), c.elev_den);
    c.elev_num /= ge;
    c.elev_den /= ge;
  }
  return c;
}

bool is_canonical_frame(const Viewpoint& vp) {
  const Viewpoint c = canonical(vp);
  return c.dir_x == 1 && c.dir_y == 0 && c.elev_num == 0;
}

bool ground_preserving(const Viewpoint& vp) {
  const Viewpoint c = canonical(vp);
  return c.dir_x == 1 && c.dir_y == 0;
}

u64 transformed_magnitude_bound(const Viewpoint& vp, i64 max_abs) {
  const Viewpoint c = canonical(vp);
  const u64 m = static_cast<u64>(max_abs);
  const u64 r = static_cast<u64>(std::abs(c.dir_x)) + static_cast<u64>(std::abs(c.dir_y));
  const u64 ground = r * m;
  const u64 height = (static_cast<u64>(c.elev_den) + static_cast<u64>(std::abs(c.elev_num)) * r) * m;
  return std::max(ground, height);
}

bool admissible(const Viewpoint& vp, i64 max_abs) {
  // Evaluate the bound in the order of DESIGN.md section 1.10; every factor
  // is far below 2^63 for canonical viewpoints anyone can afford (r and the
  // slope are bounded by kMaxCoord/max_abs or the check already fails), so
  // the u64 products cannot wrap before exceeding kMaxCoord.
  const Viewpoint c = canonical(vp);
  const u64 m = static_cast<u64>(max_abs);
  if (m == 0) return true;
  const u64 limit = static_cast<u64>(kMaxCoord);
  const u64 r = static_cast<u64>(std::abs(c.dir_x)) + static_cast<u64>(std::abs(c.dir_y));
  if (r > limit / m) return false;
  const u64 den = static_cast<u64>(c.elev_den);
  const u64 num = static_cast<u64>(std::abs(c.elev_num));
  if (num != 0 && num > (limit / m) / r) return false;
  return den * m <= limit - num * r * m;
}

Terrain transform_terrain(const Terrain& t, const Viewpoint& vp) {
  const Viewpoint c = canonical(vp);
  if (c.dir_x == 1 && c.dir_y == 0 && c.elev_num == 0) return t;
  if (!admissible(c, t.max_abs_coord())) {
    throw std::invalid_argument(
        "Viewpoint: transformed coordinates would exceed kMaxCoord (DESIGN.md section 1.10)");
  }
  std::vector<Vertex3> vs(t.vertices().begin(), t.vertices().end());
  for (Vertex3& v : vs) {
    const i64 x = c.dir_x * v.x + c.dir_y * v.y;
    const i64 y = c.dir_x * v.y - c.dir_y * v.x;
    const i64 z = c.elev_den * v.z - c.elev_num * x;
    v.x = x;
    v.y = y;
    v.z = z;
  }
  return Terrain::from_triangles(std::move(vs), {t.triangles().begin(), t.triangles().end()});
}

}  // namespace thsr::service
