/// \file config.hpp
/// One configuration object describing a whole geodynamo run: grid
/// resolution, shell geometry, physical parameters (given in the Yin
/// frame; the Yang frame's rotation axis follows from eq. 1), initial
/// conditions and CFL safety factor.
#pragma once

#include "mhd/init.hpp"
#include "mhd/integrator.hpp"
#include "mhd/params.hpp"

namespace yy::core {

struct SimulationConfig {
  // Resolution: radial nodes and core-span horizontal nodes per panel
  // (the panel's extended interior adds the auto-margin cells).
  int nr = 17;
  int nt_core = 17;
  int np_core = 49;

  mhd::ShellSpec shell;
  mhd::ThermalBc thermal;
  mhd::EquationParams eq;  ///< omega interpreted in the Yin frame
  mhd::InitialConditions ic;

  double cfl_safety = 0.25;

  /// Time scheme; the paper uses classical RK4 (§III), the others exist
  /// for ablation and order-verification tests.
  mhd::TimeScheme scheme = mhd::TimeScheme::rk4;

  /// Overlapped stepping: the distributed solver hides halo/overset
  /// exchange latency behind the interior RHS sweep of each RK4 stage
  /// (bitwise-identical trajectories; see DESIGN.md §10).  Honoured by
  /// the rk4 scheme; euler/rk2 fall back to synchronous fills.
  bool overlap = false;

  /// RHS backend: the production pencil/lane sweep (simd; lane width
  /// from the build's ISA, YY_SIMD=scalar|1|2|4|8 overrides it) or the
  /// operator-at-a-time reference chain, kept as the test oracle.  The
  /// two give bitwise-identical trajectories (DESIGN.md §11) and compose
  /// with `overlap`.
  mhd::RhsBackend rhs_backend = mhd::RhsBackend::simd;
};

}  // namespace yy::core
