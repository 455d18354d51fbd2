#include "baseline/latlon_solver.hpp"

#include "core/serial_solver.hpp"
#include "support/equivalence.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace yy::baseline {
namespace {

LatLonConfig small_config() {
  LatLonConfig cfg;
  cfg.nr = 9;
  cfg.nt = 16;
  cfg.np = 32;
  cfg.eq.mu = 3e-3;
  cfg.eq.kappa = 3e-3;
  cfg.eq.eta = 3e-3;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0.0, 0.0, 8.0};
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

TEST(LatLon, GridIsCellCenteredOffPoles) {
  LatLonSolver s(small_config());
  const SphericalGrid& g = s.grid();
  const int gh = g.ghost();
  EXPECT_GT(g.theta(gh), 0.0);
  EXPECT_LT(g.theta(gh + g.spec().nt - 1), 3.14159265358979);
  EXPECT_NEAR(g.theta(gh), 0.5 * g.dt(), 1e-14);
}

TEST(LatLon, PhiWrapIsPeriodic) {
  LatLonSolver s(small_config());
  s.initialize();
  const SphericalGrid& g = s.grid();
  const int gh = g.ghost();
  const int np = g.spec().np;
  mhd::Fields& f = s.state();
  // Ghost column left of p0 equals the last interior column.
  for (int it = gh; it < gh + g.spec().nt; ++it)
    for (int ir = gh; ir < gh + g.spec().nr; ++ir) {
      EXPECT_DOUBLE_EQ(f.p(ir, it, gh - 1), f.p(ir, it, gh + np - 1));
      EXPECT_DOUBLE_EQ(f.p(ir, it, gh + np), f.p(ir, it, gh));
    }
}

TEST(LatLon, PoleGhostsMirrorAcrossWithSignFlip) {
  LatLonSolver s(small_config());
  s.initialize();
  // Plant a recognizable vector value near the north pole.
  const SphericalGrid& g = s.grid();
  const int gh = g.ghost();
  const int np = g.spec().np;
  mhd::Fields& f = s.state();
  f.ft(gh + 2, gh, gh + 3) = 0.123;   // first interior row
  f.fr(gh + 2, gh, gh + 3) = 0.456;
  s.fill_ghosts(f);
  const int ip_opposite = (3 + np / 2) % np + gh;
  EXPECT_DOUBLE_EQ(f.ft(gh + 2, gh - 1, ip_opposite), -0.123);
  EXPECT_DOUBLE_EQ(f.fr(gh + 2, gh - 1, ip_opposite), 0.456);
}

TEST(LatLon, StableOverSteps) {
  LatLonSolver s(small_config());
  s.initialize();
  for (int i = 0; i < 15; ++i) s.step(s.stable_dt());
  const auto e = s.energies();
  EXPECT_TRUE(std::isfinite(e.kinetic));
  EXPECT_TRUE(std::isfinite(e.thermal));
  EXPECT_GT(e.kinetic, 0.0);
}

TEST(LatLon, MassApproximatelyConserved) {
  LatLonSolver s(small_config());
  s.initialize();
  const double m0 = s.energies().mass;
  for (int i = 0; i < 15; ++i) s.step(s.stable_dt());
  EXPECT_NEAR(s.energies().mass, m0, 2e-3 * m0);
}

TEST(LatLon, PoleTimestepPenaltyVersusYinYang) {
  // The paper's motivation (§II): grid convergence near the poles
  // degrades the lat-lon code.  At matched angular resolution the
  // lat-lon CFL timestep must be well below the Yin-Yang panel's,
  // because dφ·r·sinθ collapses at the poles while the Yin-Yang panel
  // never leaves |cosθ| ≤ cos(π/4)+margin.
  LatLonConfig cfg = small_config();
  cfg.nt = 48;  // fine enough that the pole crowding bites
  cfg.np = 96;
  LatLonSolver latlon(cfg);
  latlon.initialize();
  const double dt_latlon = latlon.stable_dt();

  // Yin-Yang with the same angular spacing: dθ = π/48 → nt_core ≈ 25.
  core::SimulationConfig yycfg;
  yycfg.nr = cfg.nr;
  yycfg.nt_core = 25;
  yycfg.np_core = 73;
  yycfg.eq = cfg.eq;
  yycfg.ic = cfg.ic;
  core::SerialYinYangSolver yysolver(yycfg);
  yysolver.initialize();
  const double dt_yy = yysolver.stable_dt();

  EXPECT_LT(dt_latlon, 0.55 * dt_yy)
      << "latlon dt=" << dt_latlon << " yinyang dt=" << dt_yy;
}

TEST(LatLon, PolarFilterAllowsLargerEffectiveStep) {
  LatLonConfig cfg = small_config();
  cfg.polar_filter_threshold = 0.4;
  LatLonSolver s(cfg);
  s.initialize();
  for (int i = 0; i < 10; ++i) s.step(s.stable_dt());
  const auto e = s.energies();
  EXPECT_TRUE(std::isfinite(e.kinetic));
}

TEST(LatLon, PoleCrowdingFractionGrowsWithResolution) {
  LatLonConfig coarse = small_config();
  LatLonSolver a(coarse);
  // sinθ < 0.5 covers θ < 30° and θ > 150°: exactly 1/3 of rows.
  EXPECT_NEAR(a.pole_crowding_fraction(), 1.0 / 3.0, 0.15);
}

TEST(LatLon, DeterministicTrajectories) {
  LatLonSolver a(small_config()), b(small_config());
  a.initialize();
  b.initialize();
  const double dt = a.stable_dt();
  for (int i = 0; i < 3; ++i) {
    a.step(dt);
    b.step(dt);
  }
  for_box(a.grid().interior(), [&](int ir, int it, int ip) {
    ASSERT_DOUBLE_EQ(a.state().p(ir, it, ip), b.state().p(ir, it, ip));
  });
}

TEST(LatLon, SimdStepMatchesReferenceBitwise) {
  // The solver steps with the simd kernel; an rk4 Integrator on the
  // reference chain, fed the same ghost pipeline, must land on the same
  // bits.
  LatLonSolver a(small_config()), b(small_config());
  a.initialize();
  b.initialize();
  const double dt = a.stable_dt();
  a.step(dt);
  mhd::Integrator ref(mhd::TimeScheme::rk4, {&b.grid()},
                      mhd::RhsBackend::reference);
  ref.step({{&b.grid(), b.config().eq, &b.state()}}, dt,
           [&](const std::vector<mhd::Fields*>& s) { b.fill_ghosts(*s[0]); });
  for (std::size_t k = 0; k < a.state().all().size(); ++k) {
    const auto& fa = a.state().all()[k]->flat();
    const auto& fb = b.state().all()[k]->flat();
    ASSERT_EQ(fa.size(), fb.size());
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)),
              0)
        << "field " << k;
  }
}

TEST(LatLonGolden, FortyStepsMatchPinnedHash) {
  // The default LatLonConfig (rk4), 40 steps at the CFL dt taken once
  // after initialize(); the hash is FNV-1a-64 over the raw bytes of
  // every field in Fields::all() order, ghosts included.  Pins the
  // kernel and the pole/wrap/wall fill across versions.  Recorded with
  // glibc 2.36 on x86-64 (the initial state calls libm).
  LatLonSolver s{LatLonConfig{}};
  s.initialize();
  const double dt = s.stable_dt();
  for (int i = 0; i < 40; ++i) s.step(dt);
  std::uint64_t h = testsupport::kFnvBasis;
  for (const Field3* f : s.state().all()) h = testsupport::fnv1a(h, *f);
  EXPECT_EQ(h, 0x51882f3ea31fc6cfULL) << "got " << std::hex << h;
}

}  // namespace
}  // namespace yy::baseline
