/// Quickstart: build a small Yin-Yang geodynamo, run a few dozen steps,
/// watch the energy budget.  This is the 60-second tour of the public
/// API — grid/geometry configuration, the serial whole-sphere solver,
/// CFL stepping and global diagnostics.
#include <cstdio>

#include "core/serial_solver.hpp"

int main() {
  using namespace yy;

  // 1. Describe the run: resolution, shell geometry, physics.
  core::SimulationConfig cfg;
  cfg.nr = 17;        // radial nodes (the "vectorized" direction)
  cfg.nt_core = 17;   // colatitude nodes across the 90-degree core span
  cfg.np_core = 49;   // longitude nodes across the 270-degree core span
  cfg.eq.mu = 2e-3;   // viscosity
  cfg.eq.kappa = 2e-3;  // thermal conductivity
  cfg.eq.eta = 2e-3;  // electrical resistivity
  cfg.eq.g0 = 2.0;    // central gravity strength, g = -g0/r^2 r_hat
  cfg.eq.omega = {0.0, 0.0, 10.0};  // rotation axis = z (Yin frame)
  cfg.thermal = {2.0, 1.0};         // hot inner sphere, cold outer
  cfg.ic.perturb_amp = 1e-2;        // random temperature perturbation
  cfg.ic.seed_b_amp = 1e-4;         // random magnetic seed (paper SIII)

  // 2. The solver owns both Yin and Yang panels and their coupling.
  core::SerialYinYangSolver solver(cfg);
  solver.initialize();

  std::printf("Yin-Yang geodynamo: %d x %d x %d nodes per panel (x2 panels)\n",
              cfg.nr, solver.geometry().nt(), solver.geometry().np());
  std::printf("minimal overlap of the two panels: %.1f%% of the sphere\n\n",
              100.0 * yinyang::ComponentGeometry::minimal_overlap_ratio());

  // 3. March in time at the CFL-stable step; print the global budget.
  std::printf("%8s %12s %14s %14s %12s\n", "step", "time", "kinetic",
              "magnetic", "mass");
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 10; ++i) solver.step(solver.stable_dt());
    const mhd::EnergyBudget e = solver.energies();
    std::printf("%8lld %12.5f %14.5e %14.5e %12.6f\n", solver.steps_taken(),
                solver.time(), e.kinetic, e.magnetic, e.mass);
  }

  // 4. The overlap region holds a "double solution" (paper SII); its
  //    mismatch is bounded by the discretization error.
  const auto [rms, mx] = solver.double_solution_error(/*pressure*/ 4);
  std::printf("\ndouble-solution consistency in the overlap: rms %.2e, max %.2e\n",
              rms, mx);
  std::printf("done.\n");
  return 0;
}
