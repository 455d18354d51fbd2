/// \file rk4.hpp
/// Classical fourth-order Runge-Kutta time integration (paper §III)
/// over a *system* of grid patches advanced in lockstep.
///
/// A "patch" is one Fields object on one SphericalGrid with its own
/// EquationParams (Yin and Yang differ only in the rotation-axis
/// components).  The serial driver passes the two whole panels; the
/// distributed solver passes this rank's single local patch.  After
/// every stage the caller-supplied fill callback re-establishes all
/// ghost data (physical walls, halo exchange, overset interpolation) on
/// the stage states — the overset coupling is what forces the panels to
/// advance together.
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

/// Ghost-refresh callback: invoked with the stage states (one per
/// patch, same order as the PatchDefs).
using Rk4FillFn = std::function<void(const std::vector<Fields*>&)>;

/// Split ghost-fill protocol for the overlapped stepping mode: post()
/// launches the exchanges (and must leave the states' *owned* data —
/// including radial ghosts — valid, so the interior RHS can run while
/// messages are in flight); finish() completes them and re-establishes
/// the horizontal ghost frame.  post() immediately followed by
/// finish() must be exactly equivalent to one synchronous fill.
struct OverlapHooks {
  Rk4FillFn post;
  Rk4FillFn finish;
  /// Stencil reach of the RHS in θ/φ (the grid's ghost width): the
  /// interior sweep stays this many nodes away from the patch edge.
  int rim_width = 0;
};

class Rk4 {
 public:
  /// Called with the stage states (one per patch, same order as the
  /// PatchDefs) whenever their ghosts must be refreshed.
  using FillFn = Rk4FillFn;

  /// Allocates stage storage for the given patch shapes; `backend`
  /// selects the RHS evaluation strategy (bitwise-equivalent paths,
  /// see rhs.hpp).  There is no default: SimulationConfig::rhs_backend
  /// is the one place the solvers' default is decided.
  Rk4(const std::vector<const SphericalGrid*>& grids, RhsBackend backend);

  /// Advances every patch by dt.  The incoming states must already
  /// have valid ghosts; on return the new states have valid ghosts
  /// (fill is invoked on them last).
  ///
  /// With `overlap` non-null, each stage fill runs as post → interior
  /// RHS (on the rim-shrunk box, threaded per YY_THREADS) → finish →
  /// rim RHS, hiding exchange latency behind the interior sweep.  The
  /// RHS is a pointwise function of the state's stencil neighbourhood,
  /// so the result is bitwise identical to the synchronous path.  The
  /// final fill of the new states stays synchronous in both modes.
  void step(const std::vector<PatchDef>& patches, double dt,
            const FillFn& fill, const OverlapHooks* overlap = nullptr);

 private:
  std::vector<const SphericalGrid*> grids_;
  RhsBackend backend_;
  std::vector<Fields> k_;      // stage derivative
  std::vector<Fields> stage_;  // stage state
  std::vector<Fields> acc_;    // accumulated solution
  std::vector<Workspace> ws_;                    // reference backend
  std::vector<std::vector<Workspace>> ws_pool_;  // per patch, per thread
  std::vector<PencilWorkspace> pw_;                    // simd backend
  std::vector<std::vector<PencilWorkspace>> pw_pool_;  // per patch, per thread
};

}  // namespace yy::mhd
