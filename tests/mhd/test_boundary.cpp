#include "mhd/boundary.hpp"

#include <gtest/gtest.h>

namespace yy::mhd {
namespace {

SphericalGrid shell_grid() {
  GridSpec s;
  s.nr = 7;
  s.nt = 5;
  s.np = 5;
  s.r0 = 0.4;
  s.r1 = 1.0;
  s.t0 = 0.9;
  s.t1 = 2.2;
  s.p0 = -1.0;
  s.p1 = 1.0;
  s.ghost = 2;
  return SphericalGrid(s);
}

class BoundaryTest : public ::testing::Test {
 protected:
  BoundaryTest() : g(shell_grid()), bc({2.0, 1.0}), s(g) {
    // Some non-trivial interior data.
    for_box(g.full(), [&](int ir, int it, int ip) {
      s.rho(ir, it, ip) = 1.0 + 0.1 * ir;
      s.p(ir, it, ip) = 2.0 + 0.05 * ir + 0.01 * it;
      s.fr(ir, it, ip) = 0.3 * ir - it * 0.1;
      s.ft(ir, it, ip) = 0.2 * ip;
      s.fp(ir, it, ip) = -0.1 * ir;
      s.ar(ir, it, ip) = 0.01 * (ir + it + ip);
      s.at(ir, it, ip) = 0.02 * ir;
      s.ap(ir, it, ip) = -0.01 * it;
    });
  }
  SphericalGrid g;
  RadialBoundary bc;
  Fields s;
};

TEST_F(BoundaryTest, WallsAreRigidNoSlip) {
  bc.fill_ghosts(g, s);
  const int iw_in = g.ghost();
  const int iw_out = g.ghost() + g.spec().nr - 1;
  for (int ip = 0; ip < g.Np(); ++ip)
    for (int it = 0; it < g.Nt(); ++it)
      for (int iw : {iw_in, iw_out}) {
        EXPECT_DOUBLE_EQ(s.fr(iw, it, ip), 0.0);
        EXPECT_DOUBLE_EQ(s.ft(iw, it, ip), 0.0);
        EXPECT_DOUBLE_EQ(s.fp(iw, it, ip), 0.0);
      }
}

TEST_F(BoundaryTest, WallTemperaturesFixedHotInnerColdOuter) {
  bc.fill_ghosts(g, s);
  const int iw_in = g.ghost();
  const int iw_out = g.ghost() + g.spec().nr - 1;
  for (int ip = 0; ip < g.Np(); ++ip)
    for (int it = 0; it < g.Nt(); ++it) {
      EXPECT_DOUBLE_EQ(s.p(iw_in, it, ip) / s.rho(iw_in, it, ip), 2.0);
      EXPECT_DOUBLE_EQ(s.p(iw_out, it, ip) / s.rho(iw_out, it, ip), 1.0);
    }
}

TEST_F(BoundaryTest, PotentialClampedOnWalls) {
  bc.fill_ghosts(g, s);
  const int iw_in = g.ghost();
  const int iw_out = g.ghost() + g.spec().nr - 1;
  for (int iw : {iw_in, iw_out}) {
    EXPECT_DOUBLE_EQ(s.ar(iw, 2, 2), 0.0);
    EXPECT_DOUBLE_EQ(s.at(iw, 2, 2), 0.0);
    EXPECT_DOUBLE_EQ(s.ap(iw, 2, 2), 0.0);
  }
}

TEST_F(BoundaryTest, MassFluxGhostsOddReflected) {
  bc.fill_ghosts(g, s);
  const int iw = g.ghost();  // inner wall
  for (int k = 1; k <= g.ghost(); ++k) {
    EXPECT_DOUBLE_EQ(s.fr(iw - k, 2, 3), -s.fr(iw + k, 2, 3));
    EXPECT_DOUBLE_EQ(s.ft(iw - k, 2, 3), -s.ft(iw + k, 2, 3));
  }
}

TEST_F(BoundaryTest, DensityGhostsZeroGradient) {
  bc.fill_ghosts(g, s);
  const int iw = g.ghost() + g.spec().nr - 1;  // outer wall
  for (int k = 1; k <= g.ghost(); ++k)
    EXPECT_DOUBLE_EQ(s.rho(iw + k, 1, 1), s.rho(iw - k, 1, 1));
}

TEST_F(BoundaryTest, TemperatureGhostsOddAboutWallValue) {
  bc.fill_ghosts(g, s);
  const int iw = g.ghost();
  for (int k = 1; k <= g.ghost(); ++k) {
    const double t_ghost = s.p(iw - k, 3, 3) / s.rho(iw - k, 3, 3);
    const double t_mirror = s.p(iw + k, 3, 3) / s.rho(iw + k, 3, 3);
    EXPECT_NEAR(t_ghost + t_mirror, 2.0 * 2.0, 1e-12);  // avg = T_bc = 2
  }
}

TEST_F(BoundaryTest, InteriorAwayFromWallsUntouched) {
  const double before = s.p(g.ghost() + 3, 3, 3);
  bc.fill_ghosts(g, s);
  EXPECT_DOUBLE_EQ(s.p(g.ghost() + 3, 3, 3), before);
}

TEST_F(BoundaryTest, SingleWallVariantsTouchOneSideOnly) {
  Fields t(g);
  t.copy_from(s);
  RadialBoundary inner_only({2.0, 1.0}, true, false);
  inner_only.fill_ghosts(g, t);
  const int iw_out = g.ghost() + g.spec().nr - 1;
  // Outer wall flux untouched (still whatever the fixture set).
  EXPECT_DOUBLE_EQ(t.fr(iw_out, 2, 2), s.fr(iw_out, 2, 2));
  EXPECT_DOUBLE_EQ(t.fr(g.ghost(), 2, 2), 0.0);
}

}  // namespace
}  // namespace yy::mhd
