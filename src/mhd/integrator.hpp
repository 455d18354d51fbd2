/// \file integrator.hpp
/// Explicit time integrators for the MHD system over a *system* of grid
/// patches advanced in lockstep.  The paper uses the classical
/// fourth-order Runge-Kutta method (§III); forward Euler and the
/// midpoint (RK2) scheme are provided for ablation and for the
/// temporal-convergence tests that pin each scheme's order.
///
/// A "patch" is one Fields object on one SphericalGrid with its own
/// EquationParams (Yin and Yang differ only in the rotation-axis
/// components).  The serial solver passes the two whole panels; the
/// distributed solver passes this rank's single local patch.  After
/// every stage the caller-supplied fill callback re-establishes all
/// ghost data (physical walls, halo exchange, overset interpolation) on
/// the stage states — the overset coupling is what forces the panels to
/// advance together.
///
/// Every stage of every scheme is one RHS sweep that stores its stage
/// update directly (StageUpdate, rhs.hpp) over the interior, followed
/// by the fill: no tendency array and no separate stage algebra on the
/// production path (DESIGN.md §11, "fused stage store").
#pragma once

#include <functional>
#include <vector>

#include "grid/spherical_grid.hpp"
#include "mhd/params.hpp"
#include "mhd/rhs.hpp"
#include "mhd/state.hpp"

namespace yy::mhd {

struct PatchDef {
  const SphericalGrid* grid = nullptr;
  EquationParams eq;
  Fields* state = nullptr;
};

enum class TimeScheme {
  euler,  ///< forward Euler (1st order)
  rk2,    ///< explicit midpoint (2nd order)
  rk4,    ///< classical Runge-Kutta (4th order, the paper's choice)
};

/// Formal order of accuracy of a scheme.
constexpr int scheme_order(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return 1;
    case TimeScheme::rk2: return 2;
    case TimeScheme::rk4: return 4;
  }
  return 0;
}

constexpr const char* scheme_name(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return "euler";
    case TimeScheme::rk2: return "rk2";
    case TimeScheme::rk4: return "rk4";
  }
  return "?";
}

class Integrator {
 public:
  /// Called with the stage states (one per patch, same order as the
  /// PatchDefs) whenever their ghosts must be refreshed.
  using FillFn = std::function<void(const std::vector<Fields*>&)>;

  /// Allocates stage storage for the given patch shapes; `backend`
  /// selects the RHS evaluation strategy (bitwise-equivalent paths,
  /// see rhs.hpp).  There is no default: SimulationConfig::rhs_backend
  /// is the one place the solvers' default is decided.
  Integrator(TimeScheme scheme, const std::vector<const SphericalGrid*>& grids,
             RhsBackend backend);

  TimeScheme scheme() const { return scheme_; }
  RhsBackend backend() const { return backend_; }

  /// Advances every patch by dt.  The incoming states must already
  /// have valid ghosts; on return the new states have valid ghosts
  /// (fill is invoked on them last).
  void step(const std::vector<PatchDef>& patches, double dt,
            const FillFn& fill);

 private:
  void step_euler(const std::vector<PatchDef>& patches, double dt,
                  const FillFn& fill);
  void step_rk2(const std::vector<PatchDef>& patches, double dt,
                const FillFn& fill);
  void step_rk4(const std::vector<PatchDef>& patches, double dt,
                const FillFn& fill);

  /// Applies `upd` with the tendency f(src) over patch i's interior
  /// via the selected backend.
  void stage(std::size_t i, const EquationParams& eq, const Fields& src,
             const StageUpdate& upd);

  TimeScheme scheme_;
  RhsBackend backend_;
  std::vector<const SphericalGrid*> grids_;
  // Stage states, used alternately so a stage never stores into the
  // state it reads: one set for euler/rk2, two for rk4.
  std::vector<Fields> stage_a_, stage_b_;
  std::vector<Fields> acc_;          // accumulated solution (rk4)
  std::vector<Fields> k_;            // tendency (reference backend only)
  std::vector<Workspace> ws_;        // reference backend
  std::vector<PencilWorkspace> pw_;  // simd backend
};

}  // namespace yy::mhd
