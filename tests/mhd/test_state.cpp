#include "mhd/state.hpp"

#include <gtest/gtest.h>

namespace yy::mhd {
namespace {

SphericalGrid small_grid() {
  GridSpec s;
  s.nr = 4;
  s.nt = 5;
  s.np = 6;
  s.r0 = 0.5;
  s.r1 = 1.0;
  s.t0 = 0.8;
  s.t1 = 2.3;
  s.p0 = -1.0;
  s.p1 = 1.0;
  s.ghost = 2;
  return SphericalGrid(s);
}

TEST(Fields, ConstructedWithPhysicalDefaults) {
  SphericalGrid g = small_grid();
  Fields s(g);
  EXPECT_DOUBLE_EQ(s.rho(0, 0, 0), 1.0);  // normalized outer density
  EXPECT_DOUBLE_EQ(s.p(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.fr(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.ar(0, 0, 0), 0.0);
}

TEST(Fields, AllExposesEightFieldsInPaperOrder) {
  SphericalGrid g = small_grid();
  Fields s(g);
  auto all = s.all();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all[0], &s.rho);
  EXPECT_EQ(all[1], &s.fr);
  EXPECT_EQ(all[4], &s.p);
  EXPECT_EQ(all[7], &s.ap);
}

TEST(Fields, CopyFromReplicatesEverything) {
  SphericalGrid g = small_grid();
  Fields a(g), b(g);
  a.rho(1, 2, 3) = 9.0;
  a.ap(2, 2, 2) = -4.0;
  b.copy_from(a);
  EXPECT_DOUBLE_EQ(b.rho(1, 2, 3), 9.0);
  EXPECT_DOUBLE_EQ(b.ap(2, 2, 2), -4.0);
}

TEST(Fields, AxpyIsElementwiseFma) {
  SphericalGrid g = small_grid();
  Fields a(g), x(g);
  x.p(1, 1, 1) = 4.0;     // p starts at 1.0 in a
  x.fr(1, 1, 1) = 2.0;    // fr starts at 0.0
  a.axpy(0.5, x);
  EXPECT_DOUBLE_EQ(a.p(1, 1, 1), 1.0 + 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(a.fr(1, 1, 1), 1.0);
}

TEST(Fields, AssignAxpyMatchesManualComposition) {
  SphericalGrid g = small_grid();
  Fields base(g), x(g), out(g), manual(g);
  base.p(2, 3, 1) = 3.0;
  x.p(2, 3, 1) = -2.0;
  out.assign_axpy(base, 0.25, x);
  manual.copy_from(base);
  manual.axpy(0.25, x);
  EXPECT_DOUBLE_EQ(out.p(2, 3, 1), manual.p(2, 3, 1));
  EXPECT_DOUBLE_EQ(out.p(2, 3, 1), 3.0 + 0.25 * -2.0);
}

TEST(Fields, SetZeroClearsAll) {
  SphericalGrid g = small_grid();
  Fields s(g);
  s.set_zero();
  for (const Field3* f : s.all())
    for (double v : f->flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Fields, RungeKuttaStageAlgebraIdentity) {
  // acc = y + dt/6 k1 + dt/3 k2 composed via axpy must equal the direct
  // expression — the exact algebra Integrator::step_rk4 relies on.
  SphericalGrid g = small_grid();
  Fields y(g), k1(g), k2(g), acc(g);
  y.p(1, 1, 1) = 2.0;
  k1.p(1, 1, 1) = 6.0;
  k2.p(1, 1, 1) = -3.0;
  const double dt = 0.1;
  acc.copy_from(y);
  acc.axpy(dt / 6.0, k1);
  acc.axpy(dt / 3.0, k2);
  EXPECT_NEAR(acc.p(1, 1, 1), 2.0 + dt * (6.0 / 6.0 - 3.0 / 3.0), 1e-15);
}

}  // namespace
}  // namespace yy::mhd
