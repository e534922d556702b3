#pragma once
/// \file viewpoint.hpp
/// Viewpoint-parameterized solves: exact reduction of "what does observer v
/// see" to the engine's one canonical question, "what is visible from
/// x = +infinity" (DESIGN.md section 1.10).
///
/// An observer sits at infinity in ground direction (dir_x, dir_y),
/// elevated above the horizontal by the rational slope elev_num/elev_den.
/// The reduction is a linear map with *integer* image — a ground rotation
/// (scaled by the direction's length, which cannot change visibility)
/// followed by a height shear:
///
///   x' = dir_x·x + dir_y·y          (observer direction becomes +x)
///   y' = dir_x·y − dir_y·x
///   z' = elev_den·z − elev_num·x'   (elevated rays become horizontal)
///
/// Rays from the observer map to +x rays of the image terrain, preserving
/// the order in which they meet the surface, so solving the transformed
/// terrain from x = +infinity *is* solving the original from the observer —
/// and because the image coordinates are integers, the solve runs in the
/// same exact arithmetic as the canonical frame: a parameterized solve is
/// bit-identical (map and work counters) to a direct solve of the
/// pre-transformed terrain (tests/test_service.cpp, bench_ci `service/*`).
///
/// The price of exactness is a width budget: the transform multiplies
/// coordinate magnitudes, and the solver's i128 predicates admit inputs
/// only up to kMaxCoord (DESIGN.md section 5). `admissible()` is the gate;
/// DESIGN.md section 1.10 derives the bound.

#include "terrain/terrain.hpp"

namespace thsr::service {

/// An observer at infinity: ground direction (dir_x, dir_y) — the observer
/// looks *along* −(dir_x, dir_y), i.e. sits on the (dir_x, dir_y) side —
/// elevated by the slope elev_num/elev_den (positive = above the horizon,
/// looking down). The default is the engine's canonical frame (+x,
/// horizontal). Exact geometric azimuths come from Pythagorean pairs
/// ((3, 4): atan2(4, 3) ≈ 53.13°); any integer pair is admissible and the
/// elevation slope is then measured in the rotation-scaled frame.
struct Viewpoint {
  i64 dir_x{1};    ///< ground direction, x component (not both zero)
  i64 dir_y{0};    ///< ground direction, y component
  i64 elev_num{0}; ///< elevation slope numerator (sign = above/below horizon)
  i64 elev_den{1}; ///< elevation slope denominator (nonzero)
  friend constexpr bool operator==(const Viewpoint&, const Viewpoint&) = default;
};

/// The unique reduced form: gcd-reduced direction and slope, elev_den > 0,
/// zero slope pinned to 0/1. Scaling a direction or slope never changes
/// what the observer sees, but it *does* change the transformed integer
/// coordinates — so every path (cache keys, cross-checks, transforms)
/// canonicalizes first, making equal viewpoints produce identical terrains
/// bit for bit. Throws std::invalid_argument on a zero direction, a zero
/// elevation denominator, or any component equal to INT64_MIN.
Viewpoint canonical(const Viewpoint& vp);

/// True when `vp` (canonicalized) is the canonical frame itself — the
/// transform is the identity and a prepared engine is reusable as-is.
bool is_canonical_frame(const Viewpoint& vp);

/// True when `vp` (canonicalized) fixes every ground coordinate (pure
/// height shear: dir = (1, 0)). The depth order and sliver classification
/// of a prepared engine remain valid — HsrEngine::prepare_with_order_of
/// can skip recomputing them (DESIGN.md section 1.10).
bool ground_preserving(const Viewpoint& vp);

/// Transformed-coordinate magnitude bound for a terrain whose coordinates
/// are at most `max_abs`: with R = |dir_x| + |dir_y| after
/// canonicalization, max(R·max_abs, (elev_den + |elev_num|·R)·max_abs).
u64 transformed_magnitude_bound(const Viewpoint& vp, i64 max_abs);

/// True when transforming a terrain of magnitude `max_abs` by `vp` stays
/// within the solver's kMaxCoord width budget (DESIGN.md section 1.10).
bool admissible(const Viewpoint& vp, i64 max_abs);

/// Apply the viewpoint reduction to `t`: the returned terrain, solved from
/// x = +infinity, shows exactly what the observer `vp` sees of `t`.
/// Vertex and triangle indices are preserved, so edge ids of the image
/// terrain equal edge ids of `t` and visibility maps correspond
/// edge-for-edge. The canonical frame returns a plain copy. Throws
/// std::invalid_argument when `vp` is degenerate or the transformed
/// coordinates would exceed kMaxCoord.
Terrain transform_terrain(const Terrain& t, const Viewpoint& vp);

}  // namespace thsr::service
