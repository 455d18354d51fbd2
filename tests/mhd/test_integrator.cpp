#include "mhd/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/serial_solver.hpp"

namespace yy::mhd {
namespace {

TEST(Integrator, SchemeOrdersAndNames) {
  EXPECT_EQ(scheme_order(TimeScheme::euler), 1);
  EXPECT_EQ(scheme_order(TimeScheme::rk2), 2);
  EXPECT_EQ(scheme_order(TimeScheme::rk4), 4);
  EXPECT_STREQ(scheme_name(TimeScheme::rk4), "rk4");
}

core::SimulationConfig order_config(TimeScheme scheme) {
  // A smooth, gently driven configuration (no random fields) so the
  // temporal error dominates over noise.
  core::SimulationConfig cfg;
  cfg.nr = 9;
  cfg.nt_core = 9;
  cfg.np_core = 25;
  cfg.eq.mu = 5e-3;
  cfg.eq.kappa = 5e-3;
  cfg.eq.eta = 5e-3;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0, 0, 5.0};
  cfg.ic.perturb_amp = 0.0;
  cfg.ic.seed_b_amp = 0.0;
  cfg.scheme = scheme;
  return cfg;
}

/// Integrates to a fixed time T with `nsteps` and returns the pressure
/// field at a probe point (the conduction/hydrostatic adjustment is a
/// smooth trajectory ideal for order measurement).
double probe_after(TimeScheme scheme, int nsteps, double T) {
  core::SerialYinYangSolver s(order_config(scheme));
  s.initialize();
  const double dt = T / nsteps;
  for (int i = 0; i < nsteps; ++i) s.step(dt);
  return s.panel(yinyang::Panel::yin).p(5, 5, 9);
}

class IntegratorOrder : public ::testing::TestWithParam<TimeScheme> {};

TEST_P(IntegratorOrder, RichardsonOrderMatchesScheme) {
  const TimeScheme scheme = GetParam();
  const double T = 0.02;
  // Richardson: p ≈ log2(|y(dt) − y(dt/2)| / |y(dt/2) − y(dt/4)|).
  const double y1 = probe_after(scheme, 8, T);
  const double y2 = probe_after(scheme, 16, T);
  const double y3 = probe_after(scheme, 32, T);
  const double d12 = std::abs(y1 - y2);
  const double d23 = std::abs(y2 - y3);
  ASSERT_GT(d23, 0.0);
  const double p = std::log2(d12 / d23);
  EXPECT_NEAR(p, scheme_order(scheme), 0.8)
      << "d12=" << d12 << " d23=" << d23;
}

INSTANTIATE_TEST_SUITE_P(Schemes, IntegratorOrder,
                         ::testing::Values(TimeScheme::euler, TimeScheme::rk2,
                                           TimeScheme::rk4),
                         [](const ::testing::TestParamInfo<TimeScheme>& info) {
                           return scheme_name(info.param);
                         });

TEST(Integrator, SchemesConvergeToSameTrajectory) {
  // At small dt all schemes approximate the same solution.
  const double T = 0.02;
  const double ref = probe_after(TimeScheme::rk4, 64, T);
  EXPECT_NEAR(probe_after(TimeScheme::euler, 64, T), ref, 1e-4);
  EXPECT_NEAR(probe_after(TimeScheme::rk2, 64, T), ref, 1e-7);
}

TEST(Integrator, EulerStepsStayFinite) {
  core::SimulationConfig cfg = order_config(TimeScheme::euler);
  core::SerialYinYangSolver s(cfg);
  s.initialize();
  for (int i = 0; i < 3; ++i) s.step(s.stable_dt());
  EXPECT_TRUE(std::isfinite(s.energies().thermal));
}

}  // namespace
}  // namespace yy::mhd
