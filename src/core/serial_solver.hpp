/// \file serial_solver.hpp
/// Whole-sphere geodynamo solver with both Yin-Yang panels in one
/// address space — the single-process reference implementation of the
/// paper's yycore algorithm.  The distributed solver must reproduce
/// this one's trajectories (up to floating-point reassociation), which
/// the integration tests assert.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/boundary.hpp"
#include "mhd/diagnostics.hpp"
#include "mhd/integrator.hpp"
#include "yinyang/geometry.hpp"
#include "yinyang/interpolator.hpp"

namespace yy::core {

class SerialYinYangSolver {
 public:
  explicit SerialYinYangSolver(const SimulationConfig& cfg);

  /// Applies the initial conditions and establishes all ghost data.
  void initialize();

  /// One RK4 step of both panels.
  void step(double dt);

  /// CFL-stable dt (including the configured safety factor).
  double stable_dt();

  /// Globally weighted energies (overlap counted once).
  mhd::EnergyBudget energies();

  /// RMS and max difference of the "double solution" in the overlap:
  /// each panel's interior values vs interpolation from the partner,
  /// over the given state field index (paper §II's discretization-error
  /// sized mismatch).  Returns {rms, max}.
  std::pair<double, double> double_solution_error(int field_index);

  const SimulationConfig& config() const { return cfg_; }
  const yinyang::ComponentGeometry& geometry() const { return geom_; }
  const SphericalGrid& grid() const { return grid_; }
  mhd::Fields& panel(yinyang::Panel p) {
    return p == yinyang::Panel::yin ? yin_ : yang_;
  }
  const mhd::Fields& panel(yinyang::Panel p) const {
    return p == yinyang::Panel::yin ? yin_ : yang_;
  }
  const mhd::EquationParams& eq(yinyang::Panel p) const {
    return p == yinyang::Panel::yin ? eq_yin_ : eq_yang_;
  }
  double time() const { return time_; }
  long long steps_taken() const { return steps_; }

  /// Ghost-establishment pipeline (overset → walls and radial ghosts);
  /// public so tests can validate each stage.
  void fill_ghosts(mhd::Fields& yin, mhd::Fields& yang);

 private:
  SimulationConfig cfg_;
  yinyang::ComponentGeometry geom_;
  SphericalGrid grid_;
  yinyang::OversetInterpolator interp_;
  mhd::RadialBoundary bc_;
  mhd::EquationParams eq_yin_, eq_yang_;
  mhd::Fields yin_, yang_;
  mhd::Integrator integrator_;
  mhd::ColumnWeights weights_;
  double time_ = 0.0;
  long long steps_ = 0;
};

}  // namespace yy::core
