/// \file latlon_solver.hpp
/// The *previous-generation* geodynamo solver the paper converted from
/// (§II, §IV): the same finite-difference MHD equations on a single
/// full-sphere latitude-longitude grid — full colatitude span
/// (0 ≤ θ ≤ π) and periodic longitude — with the coordinate
/// singularity handled by across-pole ghost mapping and an optional
/// longitudinal polar filter.
///
/// This baseline exists to quantify the problems the Yin-Yang grid
/// removes: the CFL timestep collapse from the converging meridians
/// (dx_φ = r sinθ dφ → 0), the wasted points near the poles, and the
/// extra filtering work — reproduced by bench/sec2_latlon_vs_yinyang.
///
/// The θ nodes are cell-centred (θ_j = (j+½)·π/nt), so no node sits on
/// the singularity itself; ghost rows beyond a pole map to the row
/// mirrored across it at longitude φ+π, with the θ and φ vector
/// components flipping sign.
#pragma once

#include <memory>

#include "grid/spherical_grid.hpp"
#include "mhd/boundary.hpp"
#include "mhd/diagnostics.hpp"
#include "mhd/init.hpp"
#include "mhd/rk4.hpp"

namespace yy::baseline {

struct LatLonConfig {
  int nr = 17;
  int nt = 24;  ///< colatitude cells over (0, π)
  int np = 48;  ///< longitude nodes over the full circle (must be even)
  mhd::ShellSpec shell;
  mhd::ThermalBc thermal;
  mhd::EquationParams eq;
  mhd::InitialConditions ic;
  double cfl_safety = 0.25;
  /// Longitudinal boxcar filtering is applied on rows with
  /// sinθ < polar_filter_threshold (0 disables it).
  double polar_filter_threshold = 0.0;
};

class LatLonSolver {
 public:
  explicit LatLonSolver(const LatLonConfig& cfg);

  void initialize();
  void step(double dt);
  double run_steps(int n, int recompute_every = 10);
  double stable_dt();
  mhd::EnergyBudget energies();

  const SphericalGrid& grid() const { return grid_; }
  mhd::Fields& state() { return state_; }
  mhd::Workspace& workspace() { return ws_; }
  const LatLonConfig& config() const { return cfg_; }
  double time() const { return time_; }

  /// Ghost pipeline: walls → φ wrap → pole mapping → radial ghosts.
  void fill_ghosts(mhd::Fields& s);

  /// Fraction of grid columns whose local φ spacing r·sinθ·dφ is below
  /// half the equatorial spacing — the "wasted resolution" measure.
  double pole_crowding_fraction() const;

 private:
  void wrap_phi(mhd::Fields& s) const;
  void pole_ghosts(mhd::Fields& s) const;
  void polar_filter(mhd::Fields& s) const;

  LatLonConfig cfg_;
  SphericalGrid grid_;
  mhd::RadialBoundary bc_;
  mhd::Fields state_;
  mhd::Workspace ws_;
  mhd::Rk4 rk4_;  ///< simd backend, as SimulationConfig's default
  mhd::ColumnWeights weights_;
  double time_ = 0.0;
  double cached_dt_ = 0.0;
};

}  // namespace yy::baseline
