/// \file boundary.hpp
/// Physical boundary conditions on the two spherical walls (paper §III):
/// rigid co-rotating boundaries (v = 0 in the rotating frame) held at
/// fixed temperatures — hot inner sphere, cold outer sphere.
///
/// Magnetic condition: the paper does not state its magnetic boundary
/// treatment; we adopt the conventional vector-potential choice for FD
/// dynamo codes — A clamped (to zero) on the walls, which pins the
/// tangential electric field (perfect-conductor-like) and keeps
/// ∇·B = 0 exactly.  Documented in DESIGN.md as a substitution.
///
/// fill_ghosts() applies the condition over the full horizontal range of
/// a patch (including ghost columns, so it runs *after* horizontal ghost
/// filling): it overwrites the wall-node values of the state and then
/// populates the radial ghost layers by reflection consistent with them
/// (odd for f and A, even for ρ, odd-about-T_bc for T with p
/// reconstructed as ρT).  It reads only interior nodes and the wall
/// nodes' ρ, so no wall pass is needed before the horizontal exchanges.
#pragma once

#include "grid/spherical_grid.hpp"
#include "mhd/params.hpp"
#include "mhd/state.hpp"

namespace yy::mhd {

class RadialBoundary {
 public:
  RadialBoundary(ThermalBc thermal, bool has_inner_wall = true,
                 bool has_outer_wall = true)
      : thermal_(thermal), inner_(has_inner_wall), outer_(has_outer_wall) {}

  const ThermalBc& thermal() const { return thermal_; }

  /// Overwrites the wall-node values (f = 0, p = ρ·T_bc, A = 0) and
  /// fills the radial ghost layers, on both walls.
  void fill_ghosts(const SphericalGrid& g, Fields& s) const;

 private:
  void apply_wall(const SphericalGrid& g, Fields& s, int wall_index,
                  int ghost_direction, double t_bc) const;

  ThermalBc thermal_;
  bool inner_, outer_;
};

}  // namespace yy::mhd
