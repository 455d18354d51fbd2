#include "core/serial_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace yy::core {
namespace {

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = 13;
  cfg.np_core = 37;
  cfg.eq.mu = 3e-3;
  cfg.eq.kappa = 3e-3;
  cfg.eq.eta = 3e-3;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0.0, 0.0, 10.0};
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

TEST(SerialSolver, InitializeEstablishesFiniteState) {
  SerialYinYangSolver s(small_config());
  s.initialize();
  const auto e = s.energies();
  EXPECT_GT(e.mass, 0.0);
  EXPECT_GT(e.thermal, 0.0);
  EXPECT_DOUBLE_EQ(e.kinetic, 0.0);  // fluid at rest
  EXPECT_GT(e.magnetic, 0.0);        // seed field present
  EXPECT_LT(e.magnetic, 1e-4);       // ... and infinitesimally small
}

TEST(SerialSolver, NanOnYangPanelMakesStableDtNan) {
  // The Yang panel's dt is the right operand of the panel minimum,
  // where std::min would drop a NaN.
  SerialYinYangSolver s(small_config());
  s.initialize();
  ASSERT_TRUE(std::isfinite(s.stable_dt()));
  const IndexBox in = s.grid().interior();
  s.panel(yinyang::Panel::yang).p(in.r0 + 2, in.t0 + 3, in.p0 + 4) =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(s.stable_dt()));
}

TEST(SerialSolver, StableOverManySteps) {
  SerialYinYangSolver s(small_config());
  s.initialize();
  s.run_steps(30);
  const auto e = s.energies();
  EXPECT_TRUE(std::isfinite(e.kinetic));
  EXPECT_TRUE(std::isfinite(e.magnetic));
  EXPECT_TRUE(std::isfinite(e.thermal));
  EXPECT_GT(e.kinetic, 0.0);  // convection being driven
}

TEST(SerialSolver, MassApproximatelyConserved) {
  SerialYinYangSolver s(small_config());
  s.initialize();
  const double m0 = s.energies().mass;
  s.run_steps(30);
  const double m1 = s.energies().mass;
  EXPECT_NEAR(m1, m0, 2e-3 * m0);
}

TEST(SerialSolver, DeterministicTrajectories) {
  SerialYinYangSolver a(small_config()), b(small_config());
  a.initialize();
  b.initialize();
  const double dt = a.stable_dt();
  for (int i = 0; i < 5; ++i) {
    a.step(dt);
    b.step(dt);
  }
  const auto& fa = a.panel(yinyang::Panel::yin);
  const auto& fb = b.panel(yinyang::Panel::yin);
  for_box(a.grid().interior(), [&](int ir, int it, int ip) {
    ASSERT_DOUBLE_EQ(fa.p(ir, it, ip), fb.p(ir, it, ip));
    ASSERT_DOUBLE_EQ(fa.ar(ir, it, ip), fb.ar(ir, it, ip));
  });
}

TEST(SerialSolver, SeedChangesTrajectory) {
  SimulationConfig ca = small_config();
  SimulationConfig cb = small_config();
  cb.ic.seed = 777;
  SerialYinYangSolver a(ca), b(cb);
  a.initialize();
  b.initialize();
  a.run_steps(3);
  b.run_steps(3);
  EXPECT_NE(a.panel(yinyang::Panel::yin).p(5, 5, 5),
            b.panel(yinyang::Panel::yin).p(5, 5, 5));
}

TEST(SerialSolver, DoubleSolutionSmallForSmoothState) {
  // With zero perturbation and no seed, the state is spherically
  // symmetric: both panels hold the same radial profiles and the
  // double solution in the overlap must match to interpolation error.
  SimulationConfig cfg = small_config();
  cfg.ic.perturb_amp = 0.0;
  cfg.ic.seed_b_amp = 0.0;
  SerialYinYangSolver s(cfg);
  s.initialize();
  auto [rms0, max0] = s.double_solution_error(0);   // ρ
  EXPECT_LT(max0, 1e-12);  // radial profile is exactly shared
  s.run_steps(10);
  auto [rms1, max1] = s.double_solution_error(0);
  // The evolved state stays consistent between panels (paper §II: the
  // difference is within the discretization error).
  EXPECT_LT(rms1, 1e-4);
}

TEST(SerialSolver, DoubleSolutionWithinDiscretizationError) {
  SerialYinYangSolver s(small_config());
  s.initialize();
  s.run_steps(20);
  auto [rms, mx] = s.double_solution_error(4);  // pressure
  const double p_scale = s.panel(yinyang::Panel::yin).p(7, 7, 7);
  EXPECT_LT(rms, 0.05 * std::abs(p_scale));
}

TEST(SerialSolver, CflTimestepScalesWithResolution) {
  SimulationConfig coarse = small_config();
  SimulationConfig fine = small_config();
  fine.nr = 2 * coarse.nr - 1;
  fine.nt_core = 2 * coarse.nt_core - 1;
  fine.np_core = 2 * coarse.np_core - 1;
  SerialYinYangSolver a(coarse), b(fine);
  a.initialize();
  b.initialize();
  EXPECT_LT(b.stable_dt(), a.stable_dt());
}

TEST(SerialSolver, RunStepsAdvancesClock) {
  SerialYinYangSolver s(small_config());
  s.initialize();
  const double advanced = s.run_steps(7);
  EXPECT_GT(advanced, 0.0);
  EXPECT_NEAR(s.time(), advanced, 1e-15);
  EXPECT_EQ(s.steps_taken(), 7);
}

TEST(SerialSolver, HeatFlowsWithoutConvection) {
  // Diffusion-only configuration (no gravity: no buoyancy): thermal
  // energy drifts toward the conductive balance; kinetic stays ~0.
  SimulationConfig cfg = small_config();
  cfg.eq.g0 = 0.0;
  cfg.eq.omega = {0, 0, 0};
  cfg.ic.perturb_amp = 0.0;
  cfg.ic.seed_b_amp = 0.0;
  SerialYinYangSolver s(cfg);
  s.initialize();
  s.run_steps(10);
  EXPECT_LT(s.energies().kinetic, 1e-8);
}

}  // namespace
}  // namespace yy::core
