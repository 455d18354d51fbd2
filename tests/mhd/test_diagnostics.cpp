#include "mhd/diagnostics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/flops.hpp"
#include "grid/analytic_fields.hpp"
#include "grid/fd_ops.hpp"
#include "mhd/derived.hpp"
#include "mhd/rhs.hpp"

namespace yy::mhd {
namespace {

SphericalGrid diag_grid(int n) {
  GridSpec s;
  s.nr = n;
  s.nt = n;
  s.np = n;
  s.r0 = 0.5;
  s.r1 = 1.0;
  s.t0 = 0.7;
  s.t1 = 2.1;
  s.p0 = -1.5;
  s.p1 = 1.5;
  s.ghost = 2;
  return SphericalGrid(s);
}

double patch_volume(const SphericalGrid& g) {
  // Analytic ∫ r² sinθ over the interior spans.
  const auto& sp = g.spec();
  return (std::pow(sp.r1, 3) - std::pow(sp.r0, 3)) / 3.0 *
         (std::cos(sp.t0) - std::cos(sp.t1)) * (sp.p1 - sp.p0);
}

class DiagnosticsTest : public ::testing::Test {
 protected:
  DiagnosticsTest()
      : g(diag_grid(20)), s(g), w(g.Nt(), g.Np(), 0.0) {
    // Trapezoid column weights in θ/φ (integrate_energies supplies the
    // radial end-weights itself), so integrals are quadrature-accurate.
    const IndexBox in = g.interior();
    for (int it = in.t0; it < in.t1; ++it)
      for (int ip = in.p0; ip < in.p1; ++ip) {
        double ww = 1.0;
        if (it == in.t0 || it == in.t1 - 1) ww *= 0.5;
        if (ip == in.p0 || ip == in.p1 - 1) ww *= 0.5;
        w.at(it, ip) = ww;
      }
  }
  SphericalGrid g;
  Fields s;
  ColumnWeights w;
  EquationParams eq;
};

TEST_F(DiagnosticsTest, MassOfUniformDensity) {
  const EnergyBudget e = integrate_energies(g, eq, s, w, g.interior());
  EXPECT_NEAR(e.mass, patch_volume(g), 0.1 * patch_volume(g));
}

TEST_F(DiagnosticsTest, KineticEnergyOfKnownFlow) {
  // f = ρv with ρ = 2, |v| = 3: KE density = ½ρ|v|² = 9.
  s.rho.fill(2.0);
  for_box(g.full(), [&](int ir, int it, int ip) {
    s.fr(ir, it, ip) = 2.0 * 3.0;  // v = (3, 0, 0)
  });
  const EnergyBudget e = integrate_energies(g, eq, s, w, g.interior());
  EXPECT_NEAR(e.kinetic / patch_volume(g), 9.0, 0.9);
}

TEST_F(DiagnosticsTest, MagneticEnergyOfUniformField) {
  // A = ½ B0×x: B = B0, energy density = |B0|²/2.
  const Vec3 b0{0.6, 0.0, 0.8};  // |B0| = 1
  testutil::fill_vector(g, s.ar, s.at, s.ap,
                        [&](const Vec3& x) { return 0.5 * b0.cross(x); });
  const EnergyBudget e = integrate_energies(g, eq, s, w, g.interior());
  EXPECT_NEAR(e.magnetic / patch_volume(g), 0.5, 0.05);
}

TEST_F(DiagnosticsTest, ThermalEnergyTracksPressure) {
  s.p.fill(3.0);
  const EnergyBudget e = integrate_energies(g, eq, s, w, g.interior());
  EXPECT_NEAR(e.thermal / patch_volume(g), 3.0 / (eq.gamma - 1.0), 0.5);
}

TEST_F(DiagnosticsTest, ZeroWeightColumnsExcluded) {
  ColumnWeights none(g.Nt(), g.Np(), 0.0);
  const EnergyBudget e = integrate_energies(g, eq, s, none, g.interior());
  EXPECT_DOUBLE_EQ(e.mass, 0.0);
  EXPECT_DOUBLE_EQ(e.thermal, 0.0);
}

TEST_F(DiagnosticsTest, HalfWeightHalvesIntegral) {
  ColumnWeights half(g.Nt(), g.Np(), 0.0);
  const IndexBox in = g.interior();
  for (int it = in.t0; it < in.t1; ++it)
    for (int ip = in.p0; ip < in.p1; ++ip) half.at(it, ip) = 0.5 * w.at(it, ip);
  const EnergyBudget full = integrate_energies(g, eq, s, w, g.interior());
  const EnergyBudget h = integrate_energies(g, eq, s, half, g.interior());
  EXPECT_NEAR(h.mass, 0.5 * full.mass, 1e-12);
}

TEST_F(DiagnosticsTest, BudgetAccumulationOperator) {
  EnergyBudget a{1, 2, 3, 4}, b{10, 20, 30, 40};
  a += b;
  EXPECT_DOUBLE_EQ(a.mass, 11);
  EXPECT_DOUBLE_EQ(a.kinetic, 22);
  EXPECT_DOUBLE_EQ(a.magnetic, 33);
  EXPECT_DOUBLE_EQ(a.thermal, 44);
}

TEST_F(DiagnosticsTest, TimestepPositiveAndFinite) {
  const double dt = stable_timestep(g, eq, s, g.interior());
  EXPECT_GT(dt, 0.0);
  EXPECT_LT(dt, 1.0);
}

TEST_F(DiagnosticsTest, TimestepShrinksWithResolution) {
  SphericalGrid fine = diag_grid(40);
  Fields sf(fine);
  const double dt_coarse = stable_timestep(g, eq, s, g.interior());
  const double dt_fine = stable_timestep(fine, eq, sf, fine.interior());
  EXPECT_LT(dt_fine, dt_coarse);
  // Advection-limited: halving h should roughly halve dt.
  EXPECT_NEAR(dt_coarse / dt_fine, 2.0, 0.6);
}

TEST_F(DiagnosticsTest, TimestepShrinksWithFlowSpeed) {
  const double dt_rest = stable_timestep(g, eq, s, g.interior());
  s.fr.fill(10.0);  // fast radial flow
  const double dt_fast = stable_timestep(g, eq, s, g.interior());
  EXPECT_LT(dt_fast, dt_rest);
}

TEST_F(DiagnosticsTest, TimestepShrinksWithStiffDiffusion) {
  EquationParams stiff = eq;
  stiff.mu = 1.0;
  const double dt_soft = stable_timestep(g, eq, s, g.interior());
  const double dt_stiff = stable_timestep(g, stiff, s, g.interior());
  EXPECT_LT(dt_stiff, dt_soft);
}

TEST_F(DiagnosticsTest, TimestepShrinksWithStrongField) {
  // Large uniform B raises the fast speed: A = ½ B0×x with |B0| = 20.
  const double dt_weak = stable_timestep(g, eq, s, g.interior());
  testutil::fill_vector(g, s.ar, s.at, s.ap, [](const Vec3& x) {
    return 0.5 * Vec3{0, 0, 20.0}.cross(x);
  });
  const double dt_strong = stable_timestep(g, eq, s, g.interior());
  EXPECT_LT(dt_strong, 0.5 * dt_weak);
}

// ---- Equivalence with the array formulation ------------------------
//
// The diagnostics evaluate B = ∇×A point by point.  The oracle below is
// the formulation they replaced: magnetic_field into a Workspace's
// B arrays, then the same per-point formulas read back from them.

EnergyBudget energies_via_workspace(const SphericalGrid& g,
                                    const EquationParams& eq, const Fields& s,
                                    const ColumnWeights& weights,
                                    const IndexBox& box) {
  Workspace ws(box);
  magnetic_field(g, s, ws.br, ws.bt, ws.bp, box);
  EnergyBudget e;
  for_box(box, [&](int ir, int it, int ip) {
    double w = weights.at(it, ip);
    if (w == 0.0) return;
    if (ir == box.r0 || ir == box.r1 - 1) w *= 0.5;
    const double dv = w * g.volume_element(ir, it);
    const double rho = s.rho(ir, it, ip);
    const double f2 = s.fr(ir, it, ip) * s.fr(ir, it, ip) +
                      s.ft(ir, it, ip) * s.ft(ir, it, ip) +
                      s.fp(ir, it, ip) * s.fp(ir, it, ip);
    const double b2 = ws.br(ir, it, ip) * ws.br(ir, it, ip) +
                      ws.bt(ir, it, ip) * ws.bt(ir, it, ip) +
                      ws.bp(ir, it, ip) * ws.bp(ir, it, ip);
    e.mass += rho * dv;
    e.kinetic += 0.5 * f2 / rho * dv;
    e.magnetic += 0.5 * b2 * dv;
    e.thermal += s.p(ir, it, ip) / (eq.gamma - 1.0) * dv;
  });
  return e;
}

double timestep_via_workspace(const SphericalGrid& g, const EquationParams& eq,
                              const Fields& s, const IndexBox& box) {
  Workspace ws(box);
  magnetic_field(g, s, ws.br, ws.bt, ws.bp, box);
  double max_rate = 0.0;
  bool finite = true;
  for_box(box, [&](int ir, int it, int ip) {
    const double rho = s.rho(ir, it, ip);
    const double inv_rho = 1.0 / rho;
    const double vr = std::abs(s.fr(ir, it, ip)) * inv_rho;
    const double vt = std::abs(s.ft(ir, it, ip)) * inv_rho;
    const double vp = std::abs(s.fp(ir, it, ip)) * inv_rho;
    const double b2 = ws.br(ir, it, ip) * ws.br(ir, it, ip) +
                      ws.bt(ir, it, ip) * ws.bt(ir, it, ip) +
                      ws.bp(ir, it, ip) * ws.bp(ir, it, ip);
    const double cf =
        std::sqrt((eq.gamma * s.p(ir, it, ip) + b2) * inv_rho);
    const double ihr = 1.0 / g.dr();
    const double iht = g.inv_r(ir) / g.dt();
    const double ihp = g.inv_r(ir) * g.inv_sin_t(it) / g.dp();
    const double adv =
        (vr + cf) * ihr + (vt + cf) * iht + (vp + cf) * ihp;
    const double diff_coef =
        std::max({eq.mu * inv_rho, eq.gamma * eq.kappa * inv_rho, eq.eta});
    const double diff =
        2.0 * diff_coef * (ihr * ihr + iht * iht + ihp * ihp);
    const double rate = adv + diff;
    finite = finite && std::isfinite(rate);
    max_rate = std::max(max_rate, rate);
  });
  if (!finite) return std::numeric_limits<double>::quiet_NaN();
  return max_rate > 0.0 ? 1.0 / max_rate : 1e30;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(const EnergyBudget& a, const EnergyBudget& b) {
  EXPECT_EQ(bits(a.mass), bits(b.mass));
  EXPECT_EQ(bits(a.kinetic), bits(b.kinetic));
  EXPECT_EQ(bits(a.magnetic), bits(b.magnetic));
  EXPECT_EQ(bits(a.thermal), bits(b.thermal));
}

/// Every field random over the full patch (ghosts included); ρ and p
/// positive.  Random column weights, some zero.
class DiagnosticsEquivalence : public ::testing::Test {
 protected:
  DiagnosticsEquivalence()
      : g(diag_grid(13)), s(g), w(g.Nt(), g.Np(), 0.0) {
    std::mt19937_64 rng(20260419);
    std::uniform_real_distribution<double> sym(-1.0, 1.0), pos(0.5, 2.0);
    for (Field3* f : s.all()) {
      const bool positive = f == &s.rho || f == &s.p;
      for_box(g.full(), [&](int ir, int it, int ip) {
        (*f)(ir, it, ip) = positive ? pos(rng) : sym(rng);
      });
    }
    for (int it = 0; it < g.Nt(); ++it)
      for (int ip = 0; ip < g.Np(); ++ip)
        w.at(it, ip) = sym(rng) < -0.5 ? 0.0 : pos(rng);
  }
  /// The interior and an off-centre sub-box (its radial ends are not
  /// the walls, so the trapezoid end-weights land elsewhere).
  std::vector<IndexBox> boxes() const {
    const IndexBox in = g.interior();
    return {in, {in.r0 + 1, in.r1 - 3, in.t0 + 2, in.t1 - 1, in.p0, in.p1 - 4}};
  }
  SphericalGrid g;
  Fields s;
  ColumnWeights w;
  EquationParams eq;
};

TEST_F(DiagnosticsEquivalence, EnergiesBitwiseEqualToWorkspaceFormulation) {
  for (const IndexBox& box : boxes())
    expect_bitwise(integrate_energies(g, eq, s, w, box),
                   energies_via_workspace(g, eq, s, w, box));
}

TEST_F(DiagnosticsEquivalence, TimestepBitwiseEqualToWorkspaceFormulation) {
  for (const IndexBox& box : boxes()) {
    const double dt = stable_timestep(g, eq, s, box);
    EXPECT_TRUE(std::isfinite(dt));
    EXPECT_EQ(bits(dt), bits(timestep_via_workspace(g, eq, s, box)));
  }
}

TEST_F(DiagnosticsEquivalence, ChargesTheCurlFlopsOfTheWorkspaceFormulation) {
  for (const IndexBox& box : boxes()) {
    const auto charged = [](auto&& f) {
      flops::global_reset();
      f();
      return flops::global_count();
    };
    const std::uint64_t curl =
        static_cast<std::uint64_t>(box.volume()) * fd::kFlopsCurl;
    EXPECT_EQ(charged([&] { integrate_energies(g, eq, s, w, box); }), curl);
    EXPECT_EQ(charged([&] { stable_timestep(g, eq, s, box); }), curl);
    EXPECT_EQ(charged([&] { energies_via_workspace(g, eq, s, w, box); }),
              curl);
  }
}

TEST_F(DiagnosticsEquivalence, NanPotentialGivesNanTimestepAndEnergy) {
  const IndexBox in = g.interior();
  // A at a ghost-layer neighbour of an interior point: only the curl
  // stencil reaches it.
  s.at(in.r0 - 1, in.t0 + 3, in.p0 + 2) =
      std::numeric_limits<double>::quiet_NaN();
  w.at(in.t0 + 3, in.p0 + 2) = 1.0;
  EXPECT_TRUE(std::isnan(stable_timestep(g, eq, s, in)));
  EXPECT_TRUE(std::isnan(timestep_via_workspace(g, eq, s, in)));
  const EnergyBudget e = integrate_energies(g, eq, s, w, in);
  EXPECT_TRUE(std::isnan(e.magnetic));
  EXPECT_FALSE(std::isnan(e.mass));
  expect_bitwise(e, energies_via_workspace(g, eq, s, w, in));
}

}  // namespace
}  // namespace yy::mhd
