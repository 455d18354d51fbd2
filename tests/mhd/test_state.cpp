#include "mhd/state.hpp"

#include <gtest/gtest.h>

#include "common/flops.hpp"
#include "mhd/rhs.hpp"

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

TEST(Fields, SetZeroClearsAll) {
  SphericalGrid g = small_grid();
  Fields s(g);
  s.set_zero();
  for (const Field3* f : s.all())
    for (double v : f->flat()) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// Distinct, position-dependent values in every cell (ghosts included)
/// so a misplaced or missing store shows.
void fill_pattern(Fields& s, double scale) {
  int f = 0;
  for (Field3* x : s.all()) {
    auto d = x->flat();
    for (std::size_t k = 0; k < d.size(); ++k)
      d[k] = scale * (1.0 + 0.37 * f + 1e-3 * static_cast<double>(k));
    ++f;
  }
}

TEST(StageUpdate, ReferenceLoopStoresBothExpressionsOverTheBoxOnly) {
  SphericalGrid g = small_grid();
  Fields k(g), base(g), acc_base(g), out(g), acc(g);
  fill_pattern(k, -0.5);
  fill_pattern(base, 2.0);
  fill_pattern(acc_base, 3.0);
  fill_pattern(out, 7.0);
  fill_pattern(acc, 9.0);
  const Fields out0 = out, acc0 = acc;
  const IndexBox in = g.interior();
  const double a = 0.05, b = 0.01;

  flops::global_reset();
  apply_stage_update(k, {&out, &base, a, &acc, &acc_base, b}, in);
  EXPECT_EQ(flops::global_count(),
            static_cast<std::uint64_t>(in.volume()) * 2 * kFlopsStageUpdate);

  for (int f = 0; f < Fields::kNumFields; ++f) {
    const Field3 &K = *k.all()[f], &B = *base.all()[f],
                 &AB = *acc_base.all()[f], &O = *out.all()[f],
                 &A = *acc.all()[f];
    for (int ip = 0; ip < g.Np(); ++ip)
      for (int it = 0; it < g.Nt(); ++it)
        for (int ir = 0; ir < g.Nr(); ++ir) {
          if (in.contains(ir, it, ip)) {
            ASSERT_EQ(O(ir, it, ip), B(ir, it, ip) + a * K(ir, it, ip));
            ASSERT_EQ(A(ir, it, ip), AB(ir, it, ip) + b * K(ir, it, ip));
          } else {  // ghosts are the fill's business
            ASSERT_EQ(O(ir, it, ip), (*out0.all()[f])(ir, it, ip));
            ASSERT_EQ(A(ir, it, ip), (*acc0.all()[f])(ir, it, ip));
          }
        }
  }
}

TEST(StageUpdate, InPlaceUpdatesComposeTheRungeKuttaAlgebra) {
  // acc = y + dt/6 k1, then acc += dt/3 k2 in place (acc_base == acc),
  // then y = y + dt k (out == base): the forms Integrator uses.
  SphericalGrid g = small_grid();
  Fields y(g), k1(g), k2(g), stage(g), acc(g);
  y.p(3, 3, 3) = 2.0;
  k1.p(3, 3, 3) = 6.0;
  k2.p(3, 3, 3) = -3.0;
  const double dt = 0.1;
  const IndexBox in = g.interior();
  apply_stage_update(k1, {&stage, &y, dt / 2.0, &acc, &y, dt / 6.0}, in);
  apply_stage_update(k2, {&stage, &y, dt / 2.0, &acc, &acc, dt / 3.0}, in);
  EXPECT_EQ(acc.p(3, 3, 3), (2.0 + dt / 6.0 * 6.0) + dt / 3.0 * -3.0);
  EXPECT_EQ(stage.p(3, 3, 3), 2.0 + dt / 2.0 * -3.0);
  apply_stage_update(k2, {&y, &y, dt}, in);
  EXPECT_EQ(y.p(3, 3, 3), 2.0 + dt * -3.0);
}

TEST(StageUpdateDeathTest, RejectsAnAccumulatorAliasingOutOrBase) {
  // acc is stored before base is read (rhs.hpp): aliasing would feed a
  // half-updated value into out.  YY_REQUIRE aborts.
  SphericalGrid g = small_grid();
  Fields k(g), x(g), y(g);
  EXPECT_DEATH(apply_stage_update(k, {&x, &y, 1.0, &x, &y, 1.0}, g.interior()),
               "precondition");
  EXPECT_DEATH(apply_stage_update(k, {&x, &y, 1.0, &y, &y, 1.0}, g.interior()),
               "precondition");
}

}  // namespace
}  // namespace yy::mhd
