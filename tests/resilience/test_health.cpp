#include "resilience/health.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "comm/runtime.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"

namespace yy::resilience {
namespace {

core::SimulationConfig health_config() {
  core::SimulationConfig cfg;
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

/// Runs `fn(solver)` on 4 ranks (1×2 per panel) and health-checks the
/// result; returns true iff every rank saw `expect`.
bool all_ranks_see(HealthPolicy policy, double dt, HealthVerdict expect,
                   void (*poison)(core::DistributedSolver&, int)) {
  comm::Runtime rt(4);
  std::atomic<int> agree{0};
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(health_config(), w, 1, 2);
    solver.initialize();
    if (poison != nullptr) poison(solver, w.rank());
    HealthMonitor mon(policy);
    if (mon.check(solver, dt) == expect) ++agree;
  });
  return agree.load() == 4;
}

TEST(HealthMonitor, HealthyStateGetsHealthyVerdict) {
  EXPECT_TRUE(all_ranks_see(HealthPolicy{}, 1e-4, HealthVerdict::healthy,
                            nullptr));
}

TEST(HealthMonitor, NanOnOneRankYieldsCollectiveNonfiniteVerdict) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::nonfinite,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 2)
          s.local_state().p(1, 1, 1) =
              std::numeric_limits<double>::quiet_NaN();
      }));
}

TEST(HealthMonitor, HugeValueYieldsCollectiveBlowupVerdict) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::blowup,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 1) s.local_state().fr(1, 1, 1) = 1e12;
      }));
}

TEST(HealthMonitor, NegativePressureYieldsCollectiveUnphysicalVerdict) {
  // Every field finite, p < 0 at one interior point of one rank: the
  // sound speed (and stable_dt()) is NaN there, so the state is no
  // longer healthy though no magnitude probe can see it.
  obs::EventCounters::global().reset();
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::unphysical,
      +[](core::DistributedSolver& s, int rank) {
        const IndexBox in = s.local_grid().interior();
        if (rank == 2)
          s.local_state().p(in.r0 + 1, in.t0 + 2, in.p0 + 3) = -0.44;
      }));
  EXPECT_EQ(
      obs::EventCounters::global().count(obs::Event::health_unphysical), 1u);
  EXPECT_STREQ(verdict_name(HealthVerdict::unphysical), "unphysical");
}

TEST(HealthMonitor, ZeroDensityYieldsCollectiveUnphysicalVerdict) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::unphysical,
      +[](core::DistributedSolver& s, int rank) {
        const IndexBox in = s.local_grid().interior();
        if (rank == 0) s.local_state().rho(in.r1 - 1, in.t0, in.p1 - 1) = 0.0;
      }));
}

TEST(HealthMonitor, BlowupOutranksUnphysical) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::blowup,
      +[](core::DistributedSolver& s, int rank) {
        const IndexBox in = s.local_grid().interior();
        if (rank == 1) s.local_state().p(in.r0, in.t0, in.p0) = -1.0;
        if (rank == 3) s.local_state().fr(1, 1, 1) = 1e12;
      }));
}

TEST(HealthMonitor, NegativeInfinityYieldsCollectiveNonfiniteVerdict) {
  // The blow-up probe must trip on ±Inf exactly like NaN: a magnitude
  // threshold alone would pass -Inf < threshold comparisons silently.
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::nonfinite,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 3)
          s.local_state().ft(1, 1, 1) =
              -std::numeric_limits<double>::infinity();
      }));
}

TEST(HealthMonitor, DenormalFloodYieldsCollectiveVerdict) {
  // A handful of denormals is numerically routine; a *flood* of them
  // (here: all of f_r on one rank) means the solution is collapsing
  // toward underflow and every FLOP is running at trap-to-microcode
  // speed — the monitor must call it out before the timestep ramp does.
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::denormal_flood,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 1)
          for (double& v : s.local_state().fr.flat())
            v = std::numeric_limits<double>::denorm_min();
      }));
}

TEST(HealthMonitor, SparseDenormalsStayHealthy) {
  HealthPolicy policy;  // default flood fraction 0.05
  EXPECT_TRUE(all_ranks_see(
      policy, 1e-4, HealthVerdict::healthy,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 2)
          s.local_state().fr(1, 1, 1) =
              std::numeric_limits<double>::denorm_min();
      }));
}

TEST(HealthMonitor, DenormalFloodIsCountedAsEvent) {
  obs::EventCounters::global().reset();
  ASSERT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::denormal_flood,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 0)
          for (double& v : s.local_state().ap.flat())
            v = std::numeric_limits<double>::denorm_min();
      }));
  EXPECT_EQ(obs::EventCounters::global().count(obs::Event::health_denormal),
            1u);
}

TEST(HealthMonitor, NonfiniteOutranksDenormalFlood) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::nonfinite,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 1)
          for (double& v : s.local_state().fr.flat())
            v = std::numeric_limits<double>::denorm_min();
        if (rank == 2)
          s.local_state().p(1, 1, 1) =
              std::numeric_limits<double>::infinity();
      }));
}

TEST(HealthMonitor, TinyTimestepYieldsCflCollapseVerdict) {
  HealthPolicy policy;
  policy.min_dt = 1.0;
  EXPECT_TRUE(
      all_ranks_see(policy, 1e-4, HealthVerdict::cfl_collapse, nullptr));
}

TEST(HealthMonitor, NonfiniteOutranksBlowup) {
  EXPECT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::nonfinite,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 0) s.local_state().fr(1, 1, 1) = 1e12;
        if (rank == 3)
          s.local_state().rho(1, 1, 1) =
              std::numeric_limits<double>::infinity();
      }));
}

TEST(HealthMonitor, DueFollowsCheckInterval) {
  HealthPolicy policy;
  policy.check_interval = 5;
  HealthMonitor mon(policy);
  EXPECT_FALSE(mon.due(0));
  EXPECT_FALSE(mon.due(4));
  EXPECT_TRUE(mon.due(5));
  EXPECT_FALSE(mon.due(6));
  EXPECT_TRUE(mon.due(10));
}

/// Satellite regression for the rank-death PR: the verdict collective
/// must honour the policy deadline.  One rank goes silent before the
/// sweep; with verdict_deadline_ms set, every participating rank gets
/// a timeout Error instead of wedging in the allreduce forever (which
/// is exactly how the ResilientRunner learns a health sweep lost a
/// peer).
TEST(HealthMonitor, VerdictCollectiveHonorsDeadline) {
  comm::Runtime rt(4);
  std::atomic<int> timeouts{0};
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(health_config(), w, 1, 2);
    solver.initialize();
    if (w.rank() == 2) return;  // dead-silent peer: never joins the sweep
    HealthPolicy policy;
    policy.verdict_deadline_ms = 300;
    HealthMonitor mon(policy);
    try {
      mon.check(solver, 1e-4);
    } catch (const Error& e) {
      if (e.kind() == Error::Kind::timeout) ++timeouts;
    }
  });
  EXPECT_EQ(timeouts.load(), 3);
}

TEST(HealthMonitor, VerdictsAreCountedAsEvents) {
  obs::EventCounters::global().reset();
  ASSERT_TRUE(all_ranks_see(
      HealthPolicy{}, 1e-4, HealthVerdict::nonfinite,
      +[](core::DistributedSolver& s, int rank) {
        if (rank == 0)
          s.local_state().p(1, 1, 1) =
              std::numeric_limits<double>::quiet_NaN();
      }));
  EXPECT_EQ(obs::EventCounters::global().count(obs::Event::health_check),
            1u);
  EXPECT_EQ(
      obs::EventCounters::global().count(obs::Event::health_nonfinite), 1u);
}

}  // namespace
}  // namespace yy::resilience
