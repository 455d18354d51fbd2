#include "resilience/resilient_runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace yy::resilience {
namespace {

core::SimulationConfig runner_config() {
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

std::string fresh_dir(const std::string& name) {
  // Pid-unique: concurrent suite instances (e.g. ctest in two build
  // trees at once) must never clobber each other's directories.
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<double> flatten(const mhd::Fields& s) {
  std::vector<double> out;
  for (const Field3* f : s.all())
    out.insert(out.end(), f->flat().begin(), f->flat().end());
  return out;
}

/// The PR's acceptance scenario: an overset message is dropped
/// mid-run, a checkpoint commit is torn on one rank, and the run must
/// still complete with a final state bitwise equal to an unfaulted run
/// on the same step/dt schedule — with the recovery visible in the
/// yy_metrics event output.
TEST(ResilientRunner, FaultedRunMatchesUnfaultedRunBitwise) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("acceptance");
  constexpr int kRanks = 4;
  constexpr long long kTarget = 20;
  obs::EventCounters::global().reset();

  std::vector<std::vector<double>> want(kRanks), got(kRanks);
  std::vector<RunReport> reports(kRanks);

  {  // Reference: plain uninterrupted stepping, no faults.
    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      for (long long i = 0; i < kTarget; ++i) solver.step(dt);
      want[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
  }

  {  // Faulted: drop one overset envelope at step 17, tear the step-15
     // checkpoint on rank 0.  The runner must rewind past the torn set
     // to step 10 and re-run the tail.
    comm::Runtime rt(kRanks);
    auto plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::Rule drop;
    drop.kind = comm::FaultPlan::Kind::drop;
    drop.tag = 200;  // overset interpolation traffic
    drop.min_step = 17;
    drop.max_count = 1;
    plan->add_rule(drop);
    plan->schedule_io_fault(15, /*world_rank=*/0,
                            comm::FaultPlan::IoFault::torn);
    rt.install_fault_plan(plan);

    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "acc", 3};
      policy.checkpoint_interval = 5;
      policy.max_recoveries = 3;
      policy.take_deadline_ms = 3000;  // generous for sanitizer builds
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
      got[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
    rt.install_fault_plan(nullptr);
    EXPECT_EQ(plan->injected(comm::FaultPlan::Kind::drop), 1u);
    EXPECT_EQ(plan->io_faults_fired(), 1u);
  }

  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, kTarget);
    EXPECT_EQ(rep.recoveries, 1) << "rank " << r;
    EXPECT_GE(rep.checkpoints_saved, 3) << "rank " << r;
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              want[static_cast<std::size_t>(r)].size());
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < got[static_cast<std::size_t>(r)].size(); ++i)
      if (got[static_cast<std::size_t>(r)][i] !=
          want[static_cast<std::size_t>(r)][i])
        ++diffs;
    EXPECT_EQ(diffs, 0u) << "rank " << r;
  }

  // Recovery activity must be visible through the obs metrics export.
  const auto& ev = obs::EventCounters::global();
  EXPECT_EQ(ev.count(obs::Event::recovery_rewind), 1u);
  EXPECT_EQ(ev.count(obs::Event::restart_loaded), 1u);
  EXPECT_GE(ev.count(obs::Event::comm_timeout), 1u);
  EXPECT_GE(ev.count(obs::Event::checkpoint_rejected), 1u);  // torn set
  EXPECT_GE(ev.count(obs::Event::checkpoint_saved), 4u);
  obs::TraceRecorder rec;
  const std::string json = obs::metrics_json(obs::collect_metrics(rec));
  EXPECT_NE(json.find("\"recovery_rewind\":1"), std::string::npos) << json;
  const std::string csv = obs::metrics_csv(obs::collect_metrics(rec));
  EXPECT_NE(csv.find("EVENT,recovery_rewind"), std::string::npos) << csv;
}

/// Two transient comm faults in one run: a dropped θ-halo envelope at
/// step 7 (the halo exchange times out) and a dropped overset envelope
/// at step 9 of the re-run (the overset exchange times out after the
/// halo completed).  A timeout must leave neither exchanger with
/// anything in flight, so the rewound run steps on.  Because a dropped
/// envelope starves its FIFO stream only once the donor stops
/// producing, ranks drift a step or two past the first fault before
/// deadlocking — so the two drops may collapse into one collective
/// recovery episode or surface as two, depending on machine speed.
/// Either way the run must complete, every rank must count the same
/// episodes, and the end state must be bitwise the unfaulted run on the
/// same step/dt schedule (the rewind discards the whole drifted
/// segment).
TEST(ResilientRunner, TimeoutRecoveryAfterDroppedHaloAndOverset) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("timeouts");
  const int pt = 2, pp = 1;
  constexpr int kRanks = 4;  // 2 panels × pt × pp
  constexpr long long kTarget = 12;

  std::vector<std::vector<double>> want(kRanks), got(kRanks);
  std::vector<RunReport> reports(kRanks);

  {  // Reference: plain uninterrupted stepping, no faults.
    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, pt, pp);
      solver.initialize();
      const double dt = solver.stable_dt();
      for (long long i = 0; i < kTarget; ++i) solver.step(dt);
      want[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
  }

  {  // Faulted: one θ-halo drop, then one overset drop.
    comm::Runtime rt(kRanks);
    auto plan = std::make_shared<comm::FaultPlan>();
    for (const auto& [tag, step] : {std::pair{100, 7}, {200, 9}}) {
      comm::FaultPlan::Rule drop;
      drop.kind = comm::FaultPlan::Kind::drop;
      drop.tag = tag;  // 100: θ-strip halo, 200: overset interpolation
      drop.min_step = step;
      drop.max_count = 1;
      plan->add_rule(drop);
    }
    rt.install_fault_plan(plan);

    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, pt, pp);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "tmo", 3};
      policy.checkpoint_interval = 5;
      policy.max_recoveries = 4;
      policy.take_deadline_ms = 3000;  // generous for sanitizer builds
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
      got[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
    rt.install_fault_plan(nullptr);
    EXPECT_EQ(plan->injected(comm::FaultPlan::Kind::drop), 2u);
  }

  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, kTarget) << "rank " << r;
    EXPECT_GE(rep.recoveries, 1) << "rank " << r;
    EXPECT_LE(rep.recoveries, 2) << "rank " << r;
    EXPECT_EQ(rep.recoveries, reports[0].recoveries) << "rank " << r;
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              want[static_cast<std::size_t>(r)].size());
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < got[static_cast<std::size_t>(r)].size(); ++i)
      if (got[static_cast<std::size_t>(r)][i] !=
          want[static_cast<std::size_t>(r)][i])
        ++diffs;
    EXPECT_EQ(diffs, 0u) << "rank " << r;
  }
}

TEST(ResilientRunner, BlowupTriggersDtBackoffAndCompletes) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("blowup");
  constexpr int kRanks = 4;
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(kRanks);
  std::vector<double> stable(kRanks, 0.0);
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 2);
    solver.initialize();
    const double dt = solver.stable_dt();
    stable[static_cast<std::size_t>(w.rank())] = dt;
    RunPolicy policy;
    policy.store = {dir, "bl", 2};
    policy.checkpoint_interval = 2;
    policy.health.check_interval = 1;  // scan after every step
    policy.max_recoveries = 4;
    policy.dt_backoff = 0.005;  // one backoff lands well under stable dt
    policy.take_deadline_ms = 3000;
    ResilientRunner runner(solver, policy);
    // 100× the stable dt: RK4 diverges within a few steps.
    reports[static_cast<std::size_t>(w.rank())] = runner.run(6, 100.0 * dt);
  });

  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, 6);
    EXPECT_GE(rep.recoveries, 1) << "rank " << r;
    EXPECT_LT(rep.final_dt, stable[static_cast<std::size_t>(r)]);
  }
  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::dt_backoff), 1u);
  EXPECT_GE(ev.count(obs::Event::health_check), 1u);
  EXPECT_GE(ev.count(obs::Event::recovery_rewind), 1u);
}

/// Satellite regression: after a blow-up backoff, every healthy
/// scheduled health sweep grows dt by dt_growth, bounded by
/// min(run-entry dt, dt_ramp_fraction x current CFL-stable dt) — so a
/// long enough healthy tail climbs well clear of the backed-off value
/// without ever crossing the stable ceiling, identically on all ranks.
TEST(ResilientRunner, DtReRampRecoversTowardStableAfterBackoff) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("reramp");
  constexpr int kRanks = 4;
  constexpr long long kSteps = 20;
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(kRanks);
  std::vector<double> stable(kRanks, 0.0);
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 2);
    solver.initialize();
    const double dt = solver.stable_dt();
    stable[static_cast<std::size_t>(w.rank())] = dt;
    RunPolicy policy;
    policy.store = {dir, "rr", 2};
    policy.checkpoint_interval = 4;
    policy.health.check_interval = 1;  // a ramp opportunity every step
    policy.max_recoveries = 4;
    policy.dt_backoff = 0.002;  // backed-off dt lands at 0.2x stable
    policy.take_deadline_ms = 3000;
    ResilientRunner runner(solver, policy);
    reports[static_cast<std::size_t>(w.rank())] = runner.run(kSteps, 100.0 * dt);
  });

  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, kSteps);
    EXPECT_GE(rep.recoveries, 1) << "rank " << r;
    const double s = stable[static_cast<std::size_t>(r)];
    // Climbed well past the post-backoff 0.2x stable...
    EXPECT_GT(rep.final_dt, 0.5 * s) << "rank " << r;
    // ...but stayed under the CFL-stable ceiling.
    EXPECT_LT(rep.final_dt, s) << "rank " << r;
    // stable_dt() is an exact collective: the ramp is rank-identical.
    EXPECT_EQ(rep.final_dt, reports[0].final_dt) << "rank " << r;
  }
  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::dt_backoff), 1u);
  EXPECT_GE(ev.count(obs::Event::dt_reramp), 3u);
}

TEST(ResilientRunner, PersistentFaultFailsCleanlyWithoutHanging) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("persistent");
  constexpr int kRanks = 4;
  obs::EventCounters::global().reset();

  comm::Runtime rt(kRanks);
  auto plan = std::make_shared<comm::FaultPlan>();
  comm::FaultPlan::Rule drop;  // drop EVERY user-tag envelope from step 2
  drop.kind = comm::FaultPlan::Kind::drop;
  drop.min_step = 2;
  drop.max_count = 0;  // unlimited
  plan->add_rule(drop);
  rt.install_fault_plan(plan);

  std::vector<RunReport> reports(kRanks);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 2);
    solver.initialize();
    const double dt = solver.stable_dt();
    RunPolicy policy;
    policy.store = {dir, "pf", 2};
    policy.checkpoint_interval = 100;  // none get saved before the fault
    policy.max_recoveries = 1;
    policy.take_deadline_ms = 300;  // short: the test must not crawl
    ResilientRunner runner(solver, policy);
    reports[static_cast<std::size_t>(w.rank())] = runner.run(10, dt);
  });
  rt.install_fault_plan(nullptr);

  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_FALSE(rep.completed) << "rank " << r;
    EXPECT_FALSE(rep.failure.empty()) << "rank " << r;
    EXPECT_LT(rep.final_step, 10) << "rank " << r;
  }
  EXPECT_GE(obs::EventCounters::global().count(obs::Event::run_failed), 1u);
}

TEST(ResilientRunner, CleanRunSavesAndNeverRecovers) {
  const core::SimulationConfig cfg = runner_config();
  const std::string dir = fresh_dir("clean");
  constexpr int kRanks = 2;
  std::vector<RunReport> reports(kRanks);
  std::vector<std::vector<long long>> committed(kRanks);
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 1);
    solver.initialize();
    const double dt = solver.stable_dt();
    RunPolicy policy;
    policy.store = {dir, "cl", 2};
    policy.checkpoint_interval = 4;
    policy.take_deadline_ms = 3000;
    ResilientRunner runner(solver, policy);
    reports[static_cast<std::size_t>(w.rank())] = runner.run(8, dt);
    committed[static_cast<std::size_t>(w.rank())] =
        runner.checkpoints().committed_steps();
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(reports[static_cast<std::size_t>(r)].completed);
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].recoveries, 0);
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].checkpoints_saved, 2);
    EXPECT_EQ(committed[static_cast<std::size_t>(r)],
              (std::vector<long long>{4, 8}));
  }
}

}  // namespace
}  // namespace yy::resilience
