#include "resilience/resilient_runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "support/equivalence.hpp"

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

// ---- run_to: the same loop, stopped at a simulated time ----------------

/// A 9×9×25 grid, run on 4 ranks (1×2 per panel): its CFL dt is about
/// 2.8e-3, so run_to(0.06) takes about 21 steps.
core::SimulationConfig sim_config() {
  core::SimulationConfig cfg;
  cfg.nr = 9;
  cfg.nt_core = 9;
  cfg.np_core = 25;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0, 0, 8.0};
  cfg.ic.perturb_amp = 1e-2;
  return cfg;
}

constexpr core::PanelLayout kOneByTwo{1, 2};

/// What one rank holds when its run_to returned.
struct RankEnd {
  std::vector<double> state;
  double time = 0.0;
  long long steps = 0;
  int rank = -1;  ///< rank in the world the run ended on (-1: retired)
  RunReport report;
};

/// Lets a case edit the policy (and poison the solver) before run_to.
using Prepare = std::function<void(core::DistributedSolver&, RunPolicy&)>;

/// Runs sim_config() to `t_end` through ResilientRunner::run_to on the
/// (yin, yang) layout with `plan` (if any) installed.  Returns every
/// rank's end, indexed by its rank in the launch world.
std::vector<RankEnd> run_to_case(const std::string& name, double t_end,
                                 core::PanelLayout yin = kOneByTwo,
                                 core::PanelLayout yang = kOneByTwo,
                                 std::shared_ptr<comm::FaultPlan> plan = {},
                                 const Prepare& prepare = {}) {
  const std::string dir = fresh_dir(name);
  const int n = yin.size() + yang.size();
  std::vector<RankEnd> ends(static_cast<std::size_t>(n));
  comm::Runtime rt(n);
  if (plan) rt.install_fault_plan(plan);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(sim_config(), w, yin, yang);
    solver.initialize();
    RunPolicy policy;
    policy.store = {dir, "rt", 2};
    policy.checkpoint_interval = 5;
    policy.take_deadline_ms = 3000;  // generous for sanitizer builds
    if (prepare) prepare(solver, policy);
    ResilientRunner runner(solver, policy);
    RankEnd& end = ends[static_cast<std::size_t>(w.rank())];
    end.report = runner.run_to(t_end);
    if (!end.report.completed && end.report.failure.find("rank death") !=
                                     std::string::npos)
      return;  // retired from the fabric
    end.state = flatten(solver.local_state());
    end.time = solver.time();
    end.steps = solver.steps_taken();
    end.rank = solver.runner().world().rank();
  });
  if (plan) rt.install_fault_plan(nullptr);
  return ends;
}

/// Every field of two reports, so "every rank returns the same report"
/// is one comparison.
void expect_same_report(const RunReport& a, const RunReport& b,
                        const std::string& who) {
  EXPECT_EQ(a.completed, b.completed) << who;
  EXPECT_EQ(a.final_step, b.final_step) << who;
  EXPECT_EQ(a.final_time, b.final_time) << who;
  EXPECT_EQ(a.final_dt, b.final_dt) << who;
  EXPECT_EQ(a.recoveries, b.recoveries) << who;
  EXPECT_EQ(a.checkpoints_saved, b.checkpoints_saved) << who;
  EXPECT_EQ(a.shrinks, b.shrinks) << who;
  EXPECT_EQ(a.sdc_restores, b.sdc_restores) << who;
  EXPECT_EQ(a.final_world_size, b.final_world_size) << who;
  EXPECT_EQ(a.failure, b.failure) << who;
}

/// `got` (the survivors of a faulted run, matched by their rank in the
/// world they ended on) against `want` (an unfaulted run on that world):
/// bitwise state, identical clock and step count, one report for all.
void expect_bitwise_ends(const std::vector<RankEnd>& got,
                         const std::vector<RankEnd>& want) {
  const RankEnd* first = nullptr;
  std::size_t survivors = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    const RankEnd& g = got[r];
    if (g.rank < 0) continue;
    ++survivors;
    const std::string who = "rank " + std::to_string(r);
    EXPECT_TRUE(g.report.completed) << who << ": " << g.report.failure;
    ASSERT_LT(static_cast<std::size_t>(g.rank), want.size()) << who;
    const RankEnd& w = want[static_cast<std::size_t>(g.rank)];
    EXPECT_EQ(g.time, w.time) << who;
    EXPECT_EQ(g.steps, w.steps) << who;
    EXPECT_EQ(g.report.final_time, g.time) << who;
    ASSERT_EQ(g.state.size(), w.state.size()) << who;
    EXPECT_EQ(testsupport::count_diffs(g.state, w.state), 0u) << who;
    if (first == nullptr) first = &g;
    expect_same_report(g.report, first->report, who);
  }
  EXPECT_EQ(survivors, want.size());
}

TEST(ResilientRunner, RunToLandsOnEndTime) {
  const double t_end = 0.02;
  const std::vector<RankEnd> ends = run_to_case("land", t_end);
  for (std::size_t r = 0; r < ends.size(); ++r) {
    const RankEnd& e = ends[r];
    EXPECT_TRUE(e.report.completed)
        << "rank " << r << ": " << e.report.failure;
    EXPECT_NEAR(e.time, t_end, 1e-12) << "rank " << r;
    EXPECT_EQ(e.report.final_time, e.time) << "rank " << r;
    EXPECT_EQ(e.report.final_step, e.steps) << "rank " << r;
    EXPECT_GT(e.steps, 2) << "rank " << r;
    EXPECT_EQ(e.report.recoveries, 0) << "rank " << r;
    EXPECT_GT(e.report.final_dt, 0.0) << "rank " << r;
    // The landing step saves a set like run()'s last step does.
    EXPECT_EQ(e.report.checkpoints_saved, e.steps / 5 + (e.steps % 5 != 0))
        << "rank " << r;
    expect_same_report(e.report, ends[0].report, "rank " + std::to_string(r));
  }
}

/// Successive run_to(t_k) calls stop on every t_k, and each stop holds
/// bitwise the state of the dt rule written out by hand — so a caller
/// takes snapshots between calls.
TEST(ResilientRunner, SuccessiveRunToCallsGiveTheSnapshotStates) {
  constexpr int kRanks = 4;
  constexpr int kSnapshots = 4;
  constexpr double kInterval = 0.005;
  const std::string dir = fresh_dir("snapshots");
  using Snaps = std::vector<std::vector<double>>;
  std::vector<Snaps> want(kRanks), got(kRanks);
  std::vector<std::vector<double>> times(kRanks);
  std::vector<long long> steps(kRanks, 0);

  {  // Reference: min(stable_dt(), t_k − t) by hand, no runner.
    comm::Runtime rt(kRanks);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver s(sim_config(), w, 1, 2);
      s.initialize();
      for (int k = 1; k <= kSnapshots; ++k) {
        const double t_k = k * kInterval;
        while (s.time() < t_k)
          s.step(std::min(s.stable_dt(), t_k - s.time()));
        want[static_cast<std::size_t>(w.rank())].push_back(
            flatten(s.local_state()));
      }
    });
  }
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& w) {
    const auto me = static_cast<std::size_t>(w.rank());
    core::DistributedSolver s(sim_config(), w, 1, 2);
    s.initialize();
    RunPolicy policy;
    policy.store = {dir, "sn", 2};
    policy.checkpoint_interval = 5;
    policy.take_deadline_ms = 3000;
    ResilientRunner runner(s, policy);
    for (int k = 1; k <= kSnapshots; ++k) {
      const RunReport rep = runner.run_to(k * kInterval);
      EXPECT_TRUE(rep.completed) << rep.failure;
      EXPECT_GT(rep.final_step, steps[me]);  // every interval takes steps
      steps[me] = rep.final_step;
      times[me].push_back(s.time());
      got[me].push_back(flatten(s.local_state()));
    }
  });
  for (std::size_t r = 0; r < kRanks; ++r) {
    ASSERT_EQ(got[r].size(), static_cast<std::size_t>(kSnapshots));
    for (int k = 0; k < kSnapshots; ++k) {
      const auto i = static_cast<std::size_t>(k);
      EXPECT_NEAR(times[r][i], (k + 1) * kInterval, 1e-12);
      ASSERT_EQ(got[r][i].size(), want[r][i].size());
      EXPECT_EQ(testsupport::count_diffs(got[r][i], want[r][i]), 0u)
          << "rank " << r << " snapshot " << k;
    }
  }
}

TEST(ResilientRunner, RepeatedRunToIsANoOp) {
  constexpr int kRanks = 4;
  const std::string dir = fresh_dir("noop");
  std::vector<int> ok(kRanks, 0);
  comm::Runtime rt(kRanks);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver s(sim_config(), w, 1, 2);
    s.initialize();
    RunPolicy policy;
    policy.store = {dir, "np", 2};
    policy.take_deadline_ms = 3000;
    ResilientRunner runner(s, policy);
    const RunReport first = runner.run_to(0.01);
    const std::vector<double> state = flatten(s.local_state());
    const double t = s.time();
    const long long n = s.steps_taken();
    for (const double again : {0.01, 0.005}) {  // reached, and passed
      const RunReport rep = runner.run_to(again);
      EXPECT_TRUE(rep.completed);
      EXPECT_EQ(rep.final_step, first.final_step);
      EXPECT_EQ(rep.final_time, first.final_time);
      EXPECT_EQ(rep.checkpoints_saved, 0);
      EXPECT_EQ(s.time(), t);
      EXPECT_EQ(s.steps_taken(), n);
      EXPECT_EQ(testsupport::count_diffs(flatten(s.local_state()), state), 0u);
    }
    ok[static_cast<std::size_t>(w.rank())] = first.completed;
  });
  EXPECT_EQ(ok, std::vector<int>(kRanks, 1));
}

/// p = NaN on one rank makes stable_dt() NaN on every rank.  run_to
/// must not step that state (a NaN dt would make time NaN): the non-
/// finite CFL dt enters the ladder as a blow-up.  Without a budget that
/// is a structured failure at step 0; with one, the disk rung (no set
/// saved yet: re-initialize) recovers, and the run ends bitwise the
/// unfaulted run_to.
TEST(ResilientRunner, NanStableDtNeverStepsAndEndsInLadder) {
  const double t_end = 0.01;
  const Prepare poison_rank_1 = [](core::DistributedSolver& s, RunPolicy&) {
    if (s.runner().world().rank() != 1) return;
    const IndexBox in = s.local_grid().interior();
    s.local_state().p(in.r0 + 2, in.t0 + 3, in.p0 + 4) =
        std::numeric_limits<double>::quiet_NaN();
  };

  const std::vector<RankEnd> failed = run_to_case(
      "nan_nobudget", t_end, kOneByTwo, kOneByTwo, nullptr,
      [&](core::DistributedSolver& s, RunPolicy& p) {
        poison_rank_1(s, p);
        p.max_recoveries = 0;
      });
  for (std::size_t r = 0; r < failed.size(); ++r) {
    const RankEnd& e = failed[r];
    EXPECT_FALSE(e.report.completed) << "rank " << r;
    EXPECT_EQ(e.report.failure.rfind("unrecoverable at step 0: blow-up, "
                                     "disk rung refused: recovery budget "
                                     "spent",
                                     0),
              0u)
        << e.report.failure;
    EXPECT_NE(e.report.failure.find("CFL timestep is not finite"),
              std::string::npos)
        << e.report.failure;
    EXPECT_EQ(e.steps, 0) << "rank " << r;
    EXPECT_EQ(e.time, 0.0) << "rank " << r;
    expect_same_report(e.report, failed[0].report,
                       "rank " + std::to_string(r));
  }

  const std::vector<RankEnd> want = run_to_case("nan_ref", t_end);
  obs::EventCounters::global().reset();
  const std::vector<RankEnd> got = run_to_case(
      "nan_recover", t_end, kOneByTwo, kOneByTwo, nullptr, poison_rank_1);
  expect_bitwise_ends(got, want);
  EXPECT_EQ(got[0].report.recoveries, 1);
  // No CFL dt was taken before the blow-up, so none was backed off.
  EXPECT_EQ(obs::EventCounters::global().count(obs::Event::dt_backoff), 0u);
}

/// A dropped φ-halo envelope at step 7 times the exchange out: the comm
/// row rewinds to the newest disk set, and the run_to re-run of the
/// tail lands bitwise where the unfaulted run_to does.
TEST(ResilientRunner, RunToDroppedHaloRecoversBitwise) {
  const double t_end = 0.06;  // about 21 steps
  const std::vector<RankEnd> want = run_to_case("halo_ref", t_end);
  auto plan = std::make_shared<comm::FaultPlan>();
  comm::FaultPlan::Rule drop;
  drop.kind = comm::FaultPlan::Kind::drop;
  drop.tag = 102;  // φ-strip halo
  drop.min_step = 7;
  drop.max_count = 1;
  plan->add_rule(drop);
  const std::vector<RankEnd> got =
      run_to_case("halo", t_end, kOneByTwo, kOneByTwo, plan);
  EXPECT_EQ(plan->injected(comm::FaultPlan::Kind::drop), 1u);
  expect_bitwise_ends(got, want);
  EXPECT_EQ(got[0].report.recoveries, 1);
}

/// A low-mantissa flip in A_r on rank 2 at step 8 is caught by the audit
/// (cadence 4) and repaired from the own images; the run_to ends
/// bitwise where the unfaulted one does.
TEST(ResilientRunner, RunToAuditedBitFlipRecoversBitwise) {
  const double t_end = 0.06;  // about 21 steps
  const Prepare audit = [](core::DistributedSolver&, RunPolicy& p) {
    p.sdc.audit_interval = 4;
  };
  const std::vector<RankEnd> want =
      run_to_case("flip_ref", t_end, kOneByTwo, kOneByTwo, nullptr, audit);
  auto plan = std::make_shared<comm::FaultPlan>();
  comm::FaultPlan::ComputeFault f;
  f.field = 5;  // A_r, low mantissa byte: only the CRC can see it
  f.elem = 1234;
  f.byte = 0;
  f.mask = 0x01;
  plan->schedule_bitflip(2, 8, f);
  const std::vector<RankEnd> got =
      run_to_case("flip", t_end, kOneByTwo, kOneByTwo, plan, audit);
  expect_bitwise_ends(got, want);
  EXPECT_EQ(got[0].report.sdc_restores, 1);
  EXPECT_EQ(got[0].report.recoveries, 0);
}

/// Rank 1 dies after step 13: the survivors shrink to (1×1, 1×2),
/// restore the step-10 images and land bitwise where a run_to launched
/// on that layout does.
TEST(ResilientRunner, RunToRankDeathRecoversBitwise) {
  const double t_end = 0.06;  // about 21 steps
  const core::PanelLayout shrunk_yin{1, 1};
  const std::vector<RankEnd> want =
      run_to_case("death_ref", t_end, shrunk_yin, kOneByTwo);
  auto plan = std::make_shared<comm::FaultPlan>();
  plan->schedule_rank_death(1, 13);
  const std::vector<RankEnd> got =
      run_to_case("death", t_end, kOneByTwo, kOneByTwo, plan);
  EXPECT_EQ(plan->rank_deaths_fired(), 1u);
  EXPECT_EQ(got[1].rank, -1);
  EXPECT_NE(got[1].report.failure.find("rank death"), std::string::npos);
  expect_bitwise_ends(got, want);
  EXPECT_EQ(got[0].report.shrinks, 1);
  EXPECT_EQ(got[0].report.final_world_size, 3);
}

/// A sign flip of ρ at one interior point (rank 2, step 6) makes the next
/// CFL dt NaN: a blow-up.  The ladder backs dt off to 0.2× and rewinds
/// to the step-4 set; then every healthy check re-ramps dt ×1.25 until
/// it reaches 0.95× the CFL dt, and run_to steps at the CFL dt again.
TEST(ResilientRunner, RunToDtClimbsBackAfterBlowupBackoff) {
  const double t_end = 0.06;  // about 21 steps
  obs::EventCounters::global().reset();
  auto plan = std::make_shared<comm::FaultPlan>();
  const std::vector<RankEnd> got = run_to_case(
      "reramp_to", t_end, kOneByTwo, kOneByTwo, plan,
      [&](core::DistributedSolver& s, RunPolicy& p) {
        p.checkpoint_interval = 4;
        p.health.check_interval = 1;  // a ramp opportunity every step
        p.dt_backoff = 0.2;
        const comm::Communicator& w = s.runner().world();
        if (w.rank() != 2) return;
        const IndexBox in = s.local_grid().interior();
        comm::FaultPlan::ComputeFault f;
        f.field = 0;  // ρ
        f.elem = static_cast<long long>(
            s.local_state().rho.index(in.r0 + 2, in.t0 + 2, in.p0 + 2));
        f.byte = 7;
        f.mask = 0x80;  // the sign bit
        plan->schedule_bitflip(w.world_rank_of(w.rank()), 6, f);
      });
  const auto& ev = obs::EventCounters::global();
  EXPECT_EQ(ev.count(obs::Event::dt_backoff), 1u);
  EXPECT_GE(ev.count(obs::Event::dt_reramp), 3u);
  for (std::size_t r = 0; r < got.size(); ++r) {
    const RankEnd& e = got[r];
    EXPECT_TRUE(e.report.completed)
        << "rank " << r << ": " << e.report.failure;
    EXPECT_NEAR(e.time, t_end, 1e-12) << "rank " << r;
    EXPECT_EQ(e.report.recoveries, 1) << "rank " << r;
    EXPECT_NE(e.report.final_dt, std::numeric_limits<double>::infinity());
    expect_same_report(e.report, got[0].report, "rank " + std::to_string(r));
  }
  // Back on the CFL dt: the rule's last dt is the last step's estimate.
  std::vector<RankEnd> plain = run_to_case("reramp_plain", t_end);
  EXPECT_GT(got[0].report.final_dt, 0.5 * plain[0].report.final_dt);
  EXPECT_LT(got[0].report.final_dt, 1.5 * plain[0].report.final_dt);
}

}  // namespace
}  // namespace yy::resilience
