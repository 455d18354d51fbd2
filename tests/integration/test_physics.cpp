/// Whole-system physics tests: the qualitative behaviours of paper §V
/// at workstation scale — convective instability when the Rayleigh
/// forcing exceeds critical, divergence-free magnetic fields along
/// whole trajectories, overlap-region consistency, and checkpoint
/// restart exactness.
#include <gtest/gtest.h>

#include <cmath>

#include "core/serial_solver.hpp"
#include "grid/fd_ops.hpp"
#include "mhd/derived.hpp"
#include "resilience/checkpoint2.hpp"

namespace yy {
namespace {

using core::SerialYinYangSolver;
using core::SimulationConfig;
using yinyang::Panel;

/// Steps `n` times, each at the CFL-stable dt of the state it starts from.
void step_cfl(SerialYinYangSolver& s, int n) {
  for (int i = 0; i < n; ++i) s.step(s.stable_dt());
}

SimulationConfig convective_config() {
  SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = 13;
  cfg.np_core = 37;
  cfg.eq.mu = 2e-3;
  cfg.eq.kappa = 2e-3;
  cfg.eq.eta = 2e-3;
  cfg.eq.g0 = 3.0;
  cfg.eq.omega = {0.0, 0.0, 10.0};
  cfg.thermal = {2.5, 1.0};  // strong driving
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

TEST(Physics, ConvectionGrowsFromPerturbation) {
  SerialYinYangSolver s(convective_config());
  s.initialize();
  step_cfl(s, 5);
  const double ke_early = s.energies().kinetic;
  step_cfl(s, 60);
  const double ke_late = s.energies().kinetic;
  EXPECT_GT(ke_early, 0.0);
  EXPECT_GT(ke_late, 3.0 * ke_early);  // buoyancy-driven growth
}

TEST(Physics, StableStratificationStaysQuiet) {
  // Remove the temperature contrast: with no buoyancy drive the only
  // motion is the decaying discrete hydrostatic-adjustment transient,
  // so the kinetic energy stays bounded and does not grow — unlike the
  // driven case, whose convective instability keeps amplifying.
  SimulationConfig quiet = convective_config();
  quiet.eq.g0 = 1.0;  // keep the density scale height resolved
  quiet.thermal = {1.0, 1.0};  // no contrast at all
  quiet.ic.perturb_amp = 1e-4;
  SerialYinYangSolver s(quiet);
  s.initialize();
  step_cfl(s, 40);
  const double ke_mid = s.energies().kinetic;
  step_cfl(s, 40);
  const double ke_late = s.energies().kinetic;
  EXPECT_LT(ke_late, 2.0 * ke_mid + 1e-12);  // bounded, not amplifying
  EXPECT_LT(ke_late, 1e-2);                  // and small in absolute terms

  SimulationConfig driven = convective_config();
  SerialYinYangSolver d(driven);
  d.initialize();
  step_cfl(d, 40);
  const double dke_mid = d.energies().kinetic;
  step_cfl(d, 40);
  const double dke_late = d.energies().kinetic;
  EXPECT_GT(dke_late, 1.4 * dke_mid);  // convection keeps growing
}

TEST(Physics, DivergenceOfBStaysTruncationSmall) {
  // B = ∇×A by construction: ∇·B must stay at the discretization
  // error level along the whole trajectory (a key reason the paper
  // evolves A rather than B).
  SerialYinYangSolver s(convective_config());
  s.initialize();
  step_cfl(s, 25);
  const SphericalGrid& g = s.grid();
  mhd::Workspace ws(g);
  for (Panel p : {Panel::yin, Panel::yang}) {
    mhd::Fields& f = s.panel(p);
    mhd::magnetic_field(g, f, ws.br, ws.bt, ws.bp, g.interior().grown(1));
    fd::div(g, ws.br, ws.bt, ws.bp, ws.s0, g.interior());
    double max_div = 0.0, max_b = 0.0;
    for_box(g.interior(), [&](int ir, int it, int ip) {
      max_div = std::max(max_div, std::abs(ws.s0(ir, it, ip)));
      max_b = std::max({max_b, std::abs(ws.br(ir, it, ip)),
                        std::abs(ws.bt(ir, it, ip)),
                        std::abs(ws.bp(ir, it, ip))});
    });
    // Scale-compare against |B|/h — the natural magnitude of one
    // derivative — requiring a deep relative cancellation.
    EXPECT_LT(max_div, 0.35 * max_b / g.dr()) << name(p);
  }
}

TEST(Physics, TotalEnergyBudgetClosesApproximately) {
  // Closed shell with fixed-T walls exchanges heat but not mass;
  // kinetic + magnetic stay bounded by the thermal reservoir.
  SerialYinYangSolver s(convective_config());
  s.initialize();
  const auto e0 = s.energies();
  step_cfl(s, 40);
  const auto e1 = s.energies();
  EXPECT_NEAR(e1.mass, e0.mass, 5e-3 * e0.mass);
  EXPECT_LT(e1.kinetic + e1.magnetic, 0.2 * e1.thermal);
  EXPECT_NEAR(e1.thermal, e0.thermal, 0.1 * e0.thermal);
}

TEST(Physics, RotationSuppressesRadialFlows) {
  // Rapid rotation organizes convection into columns (Taylor-Proudman):
  // the ratio of z-parallel to total kinetic energy rises with Ω.
  SimulationConfig slow = convective_config();
  slow.eq.omega = {0, 0, 1.0};
  SimulationConfig fast = convective_config();
  fast.eq.omega = {0, 0, 40.0};
  SerialYinYangSolver a(slow), b(fast);
  a.initialize();
  b.initialize();
  step_cfl(a, 50);
  step_cfl(b, 50);
  // Strong rotation delays/weakens the onset: kinetic energy is lower.
  EXPECT_LT(b.energies().kinetic, a.energies().kinetic);
}

TEST(Physics, CheckpointRestartBitExact) {
  SerialYinYangSolver s(convective_config());
  s.initialize();
  step_cfl(s, 8);
  const std::string path = std::string(::testing::TempDir()) + "/restart.yyc2";
  const SphericalGrid& g = s.grid();
  resilience::CheckpointMetaV2 meta;
  meta.nr = g.Nr();
  meta.nt = g.Nt();
  meta.np = g.Np();
  meta.panels = 2;
  meta.time = s.time();
  meta.step = s.steps_taken();
  ASSERT_TRUE(resilience::save_checkpoint_v2(path, meta, &s.panel(Panel::yin),
                                             &s.panel(Panel::yang)));

  // Continue the original for 5 more steps at a fixed dt.
  const double dt = s.stable_dt();
  for (int i = 0; i < 5; ++i) s.step(dt);

  // Restart a fresh solver from the checkpoint and do the same.
  SerialYinYangSolver r(convective_config());
  r.initialize();
  resilience::CheckpointMetaV2 back;
  ASSERT_EQ(resilience::load_checkpoint_v2(path, back, &r.panel(Panel::yin),
                                           &r.panel(Panel::yang)),
            resilience::LoadStatus::ok);
  EXPECT_EQ(back.step, meta.step);
  for (int i = 0; i < 5; ++i) r.step(dt);

  for_box(g.interior(), [&](int ir, int it, int ip) {
    ASSERT_DOUBLE_EQ(s.panel(Panel::yin).p(ir, it, ip),
                     r.panel(Panel::yin).p(ir, it, ip));
    ASSERT_DOUBLE_EQ(s.panel(Panel::yang).ar(ir, it, ip),
                     r.panel(Panel::yang).ar(ir, it, ip));
  });
}

TEST(Physics, FinerGridReducesDoubleSolutionError) {
  // The paper (§II): the double solution differs by the discretization
  // error — so refining the grid must shrink it.
  SimulationConfig coarse = convective_config();
  coarse.ic.perturb_amp = 0.0;
  coarse.ic.seed_b_amp = 0.0;
  SimulationConfig fine = coarse;
  fine.nt_core = 25;
  fine.np_core = 73;
  fine.nr = 17;

  SerialYinYangSolver a(coarse), b(fine);
  a.initialize();
  b.initialize();
  // Evolve smooth axisymmetric states (pure conduction adjustment).
  step_cfl(a, 10);
  step_cfl(b, 10);
  const double ea = a.double_solution_error(4).first;
  const double eb = b.double_solution_error(4).first;
  EXPECT_LT(eb, ea + 1e-12);
}

}  // namespace
}  // namespace yy
