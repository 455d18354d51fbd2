#include "core/distributed_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <mutex>

#include "comm/runtime.hpp"
#include "core/serial_solver.hpp"

namespace yy::core {
namespace {

using yinyang::Panel;

SimulationConfig dist_config() {
  SimulationConfig cfg;
  cfg.nr = 9;
  cfg.nt_core = 13;
  cfg.np_core = 37;
  cfg.eq.mu = 3e-3;
  cfg.eq.kappa = 3e-3;
  cfg.eq.eta = 3e-3;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0.0, 0.0, 8.0};
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

/// Runs `steps` RK4 steps on (pt × pp)-per-panel ranks and returns the
/// gathered Yin-panel field (`field_index`) plus global diagnostics.
struct DistResult {
  Field3 yin_field;
  mhd::EnergyBudget energy;
  double dt = 0.0;
};

DistResult run_distributed(const SimulationConfig& cfg, int pt, int pp,
                           int steps, int field_index) {
  DistResult result;
  std::mutex mu;
  comm::Runtime rt(2 * pt * pp);
  rt.run([&](comm::Communicator& w) {
    DistributedSolver solver(cfg, w, pt, pp);
    solver.initialize();
    const double dt = solver.stable_dt();
    for (int i = 0; i < steps; ++i) solver.step(dt);
    mhd::EnergyBudget e = solver.energies();
    Field3 f = solver.gather_field(field_index, Panel::yin);
    if (w.rank() == 0) {
      std::lock_guard lock(mu);
      result.yin_field = std::move(f);
      result.energy = e;
      result.dt = dt;
    }
  });
  return result;
}

TEST(DistributedSolver, MatchesSerialReferenceBitwise) {
  const SimulationConfig cfg = dist_config();
  const int steps = 3;

  SerialYinYangSolver serial(cfg);
  serial.initialize();
  const double dt_serial = serial.stable_dt();
  for (int i = 0; i < steps; ++i) serial.step(dt_serial);

  const DistResult dist = run_distributed(cfg, 1, 2, steps, /*p*/ 4);

  ASSERT_NEAR(dist.dt, dt_serial, 1e-15);
  const auto& sp = serial.panel(Panel::yin).p;
  const int gh = serial.grid().ghost();
  ASSERT_EQ(dist.yin_field.nr(), cfg.nr);
  double max_diff = 0.0;
  for (int ip = 0; ip < dist.yin_field.np(); ++ip)
    for (int it = 0; it < dist.yin_field.nt(); ++it)
      for (int ir = 0; ir < dist.yin_field.nr(); ++ir)
        max_diff = std::max(max_diff,
                            std::abs(dist.yin_field(ir, it, ip) -
                                     sp(ir + gh, it + gh, ip + gh)));
  // Identical kernels, identical exchange values: bit-level agreement.
  EXPECT_EQ(max_diff, 0.0);
}

TEST(DistributedSolver, DecompositionsAgreeWithEachOther) {
  const SimulationConfig cfg = dist_config();
  const DistResult a = run_distributed(cfg, 1, 2, 2, 0);
  const DistResult b = run_distributed(cfg, 2, 2, 2, 0);
  ASSERT_TRUE(a.yin_field.same_shape(b.yin_field));
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.yin_field.size(); ++i)
    max_diff = std::max(max_diff, std::abs(a.yin_field.flat()[i] -
                                           b.yin_field.flat()[i]));
  EXPECT_EQ(max_diff, 0.0);
}

TEST(DistributedSolver, GlobalEnergiesMatchSerial) {
  const SimulationConfig cfg = dist_config();
  SerialYinYangSolver serial(cfg);
  serial.initialize();
  serial.step(serial.stable_dt());
  const auto es = serial.energies();
  const DistResult d = run_distributed(cfg, 2, 2, 1, 0);
  EXPECT_NEAR(d.energy.mass, es.mass, 1e-10 * es.mass);
  EXPECT_NEAR(d.energy.thermal, es.thermal, 1e-10 * es.thermal);
  EXPECT_NEAR(d.energy.kinetic, es.kinetic, 1e-7 * es.kinetic + 1e-14);
}

TEST(DistributedSolver, OversetPlansArePaired) {
  // Σ bytes sent by Yin ranks must equal Σ bytes received by Yang ranks
  // (and vice versa): the plans on both sides must pair exactly, which
  // exchange() implicitly proves by completing without deadlock.
  const SimulationConfig cfg = dist_config();
  comm::Runtime rt(8);
  rt.run([&](comm::Communicator& w) {
    DistributedSolver solver(cfg, w, 2, 2);
    solver.initialize();  // includes one full exchange
    EXPECT_GT(solver.overset().bytes_sent_per_exchange(), 0u);
    EXPECT_GE(solver.overset().send_partner_count(), 1);
    EXPECT_GE(solver.overset().recv_partner_count(), 1);
  });
}

TEST(DistributedSolver, StableDtIsGlobalMinimum) {
  const SimulationConfig cfg = dist_config();
  comm::Runtime rt(4);
  double dts[4];
  rt.run([&](comm::Communicator& w) {
    DistributedSolver solver(cfg, w, 1, 2);
    solver.initialize();
    dts[w.rank()] = solver.stable_dt();
  });
  EXPECT_DOUBLE_EQ(dts[0], dts[1]);
  EXPECT_DOUBLE_EQ(dts[0], dts[2]);
  EXPECT_DOUBLE_EQ(dts[0], dts[3]);
}

TEST(DistributedSolver, NanOnOneRankMakesStableDtNanOnEveryRank) {
  // allreduce_min alone would keep a NaN only as a left operand, so a
  // NaN confined to the last rank would vanish from the reduction.
  const SimulationConfig cfg = dist_config();
  SerialYinYangSolver serial(cfg);
  serial.initialize();
  const double dt_serial = serial.stable_dt();

  comm::Runtime rt(4);
  double finite[4], poisoned[4];
  rt.run([&](comm::Communicator& w) {
    DistributedSolver solver(cfg, w, 1, 2);
    solver.initialize();
    finite[w.rank()] = solver.stable_dt();
    if (w.rank() == 3) {
      const IndexBox in = solver.local_grid().interior();
      solver.local_state().rho(in.r0 + 1, in.t0 + 1, in.p0 + 1) =
          std::numeric_limits<double>::quiet_NaN();
    }
    poisoned[w.rank()] = solver.stable_dt();
  });
  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(finite[r], dt_serial);
    EXPECT_TRUE(std::isnan(poisoned[r])) << poisoned[r];
  }
}

}  // namespace
}  // namespace yy::core
