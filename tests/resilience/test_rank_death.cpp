/// Rank-death fault model and shrink-to-survive recovery.
///
/// The acceptance scenario of the PR: a 4-rank run loses a rank
/// mid-flight, the survivors shrink to 3 ranks, restore the dead
/// rank's patch from its buddy's diskless replica and complete — and
/// the final state is BITWISE equal to an unfaulted run executed
/// directly on the shrunk 3-rank layout, verified per rank and per
/// gathered panel, for an interior victim and for world rank 0 (root
/// failover in every collective).  Compound schedules — a bit flip
/// beside a death, a flip on the shrunk world, two deaths on one
/// recovery budget — run through the same harness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "common/error.hpp"
#include "core/distributed_solver.hpp"
#include "obs/events.hpp"
#include "resilience/resilient_runner.hpp"
#include "support/equivalence.hpp"

namespace yy::resilience {
namespace {

// Shared state-flattening/diff helpers: tests/support/equivalence.hpp.
using testsupport::count_diffs;
using testsupport::field_data;
using testsupport::flatten;

std::string fresh_dir(const std::string& name) {
  // Pid-unique: concurrent suite instances (e.g. ctest in two build
  // trees at once) must never clobber each other's directories.
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RankDeath, RetiredPeerFailsReceivesFastButPreDeathSendsSurvive) {
  comm::Runtime rt(2);
  std::atomic<int> delivered{0}, fast_failed{0};
  rt.run([&](comm::Communicator& w) {
    if (w.rank() == 0) {
      const double v[1] = {7.0};
      w.send(1, 5, v);  // queued before death: must stay consumable
      w.retire();
      return;
    }
    double buf[1] = {0.0};
    w.recv(0, 5, buf);
    if (buf[0] == 7.0) ++delivered;
    try {
      // Even a generous deadline must not be waited out: the queue is
      // exhausted and the peer is retired, so this fails immediately.
      w.recv(0, 5, buf, 60000);
    } catch (const Error& e) {
      if (e.kind() == Error::Kind::timeout) ++fast_failed;
    }
  });
  EXPECT_EQ(delivered.load(), 1);
  EXPECT_EQ(fast_failed.load(), 1);
}

TEST(RankDeath, ShrinkBuildsDenseSurvivorCommunicator) {
  constexpr int kRanks = 4;
  comm::Runtime rt(kRanks);
  std::atomic<int> ok{0};
  rt.run([&](comm::Communicator& w) {
    w.barrier();
    if (w.rank() == 1) {
      w.retire();
      return;
    }
    // Wait until the retirement is visible, then agree on survivors.
    while (w.retired_ranks().empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(w.retired_ranks(), (std::vector<int>{1}));

    comm::Communicator small = w.shrink({0, 2, 3}, 5000);
    EXPECT_EQ(small.size(), 3);
    const int want_rank = w.rank() == 0 ? 0 : w.rank() - 1;
    EXPECT_EQ(small.rank(), want_rank);
    // Dense renumbering still addresses the original fabric ranks.
    EXPECT_EQ(small.world_rank_of(small.rank()), w.rank());

    // The new context carries collectives and point-to-point alike.
    EXPECT_DOUBLE_EQ(small.allreduce_sum(1.0), 3.0);
    const double mine[1] = {10.0 + small.rank()};
    small.send((small.rank() + 1) % 3, 9, mine);
    double got[1] = {0.0};
    small.recv((small.rank() + 2) % 3, 9, got, 5000);
    EXPECT_DOUBLE_EQ(got[0], 10.0 + (small.rank() + 2) % 3);
    ++ok;
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(RankDeath, ShrunkLayoutsKeepUntouchedPanelsAndRefactorLossy) {
  using core::DistributedSolver;
  using core::PanelLayout;
  // Yin loses one of two -> refactored to 1x1; Yang untouched.
  auto [yin, yang] =
      DistributedSolver::shrunk_layouts({1, 2}, {1, 2}, {0, 2, 3});
  EXPECT_EQ(yin.pt * yin.pp, 1);
  EXPECT_EQ(yang.pt, 1);
  EXPECT_EQ(yang.pp, 2);
  // Both panels lose one of four -> each refactored near-square.
  auto [y2, g2] =
      DistributedSolver::shrunk_layouts({2, 2}, {2, 2}, {0, 1, 2, 4, 6, 7});
  EXPECT_EQ(y2.size(), 3);
  EXPECT_EQ(g2.size(), 3);
  EXPECT_EQ(y2.pt, 1);  // choose_dims(3) = (1, 3)
  EXPECT_EQ(y2.pp, 3);
}

/// A fault schedule on 4 ranks, (1x2) Yin + (1x2) Yang, checkpoint
/// cadence 5: rank deaths (world rank, step), in step order, and
/// low-mantissa bit flips (world rank, step) for the SDC audit to catch.
struct Schedule {
  std::vector<std::pair<int, long long>> deaths;
  std::vector<std::pair<int, long long>> flips;
  int audit_interval = 0;
  int sdc_restores = 0;  ///< expected on every survivor
};

/// The shrink-to-survive acceptance run: every scheduled victim dies
/// after completing its death step, and the survivors must finish all
/// kTarget steps with per-rank state and per-panel gathered fields
/// bitwise equal to a direct unfaulted run on the final shrunk layout.
void expect_survives_bitwise(const Schedule& sched) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr int kRanks = 4;
  constexpr long long kTarget = 20;
  std::string name = "rankdeath";
  for (const auto& [r, step] : sched.deaths)
    name += "_d" + std::to_string(r) + "at" + std::to_string(step);
  for (const auto& [r, step] : sched.flips)
    name += "_f" + std::to_string(r) + "at" + std::to_string(step);
  const std::string dir = fresh_dir(name);
  obs::EventCounters::global().reset();

  // Follow the layout through each shrink: `alive` maps the current
  // world's ranks to fabric ranks.
  core::PanelLayout yin{1, 2}, yang{1, 2};
  std::vector<int> alive{0, 1, 2, 3};
  for (const auto& [victim, step] : sched.deaths) {
    std::vector<int> survivors, next;
    for (int c = 0; c < static_cast<int>(alive.size()); ++c)
      if (alive[static_cast<std::size_t>(c)] != victim) {
        survivors.push_back(c);
        next.push_back(alive[static_cast<std::size_t>(c)]);
      }
    std::tie(yin, yang) =
        core::DistributedSolver::shrunk_layouts(yin, yang, survivors);
    alive = next;
  }
  const int n_final = static_cast<int>(alive.size());

  // ---- Reference: an unfaulted run executed DIRECTLY on the final
  // shrunk layout for the whole trajectory.
  std::vector<std::vector<double>> want(static_cast<std::size_t>(n_final));
  std::vector<std::vector<double>> want_panel(2);
  {
    comm::Runtime rt(n_final);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, yin, yang);
      solver.initialize();
      const double dt = solver.stable_dt();
      for (long long i = 0; i < kTarget; ++i) solver.step(dt);
      want[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
      for (int p = 0; p < 2; ++p) {
        const Field3 gathered = solver.gather_field(
            0, p == 0 ? yinyang::Panel::yin : yinyang::Panel::yang);
        if (w.rank() == 0)
          want_panel[static_cast<std::size_t>(p)] = field_data(gathered);
      }
    });
  }

  // ---- Faulted: 4 ranks under the schedule; the survivors shrink and
  // continue.
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n_final));
  std::vector<std::vector<double>> got_panel(2);
  std::vector<RunReport> reports(kRanks);
  {
    comm::Runtime rt(kRanks);
    auto plan = std::make_shared<comm::FaultPlan>();
    for (const auto& [victim, step] : sched.deaths)
      plan->schedule_rank_death(victim, step);
    for (const auto& [victim, step] : sched.flips) {
      comm::FaultPlan::ComputeFault f;
      f.field = 5;  // A_r, low mantissa byte: only the CRC can see it
      f.elem = 1234;
      f.byte = 0;
      f.mask = 0x01;
      plan->schedule_bitflip(victim, step, f);
    }
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "rd", 2};
      policy.checkpoint_interval = 5;
      policy.take_deadline_ms = 3000;  // generous for sanitizer builds
      policy.sdc.audit_interval = sched.audit_interval;
      ResilientRunner runner(solver, policy);
      const RunReport rep = runner.run(kTarget, dt);
      reports[static_cast<std::size_t>(w.rank())] = rep;
      if (!rep.completed) return;  // a victim: retired from the fabric

      const int nr = solver.runner().world().rank();  // post-shrink rank
      got[static_cast<std::size_t>(nr)] = flatten(solver.local_state());
      for (int p = 0; p < 2; ++p) {
        const Field3 gathered = solver.gather_field(
            0, p == 0 ? yinyang::Panel::yin : yinyang::Panel::yang);
        if (nr == 0)
          got_panel[static_cast<std::size_t>(p)] = field_data(gathered);
      }
    });
    rt.install_fault_plan(nullptr);
    EXPECT_EQ(plan->rank_deaths_fired(), sched.deaths.size());
  }

  // Each victim reports the injected death; every survivor reports a
  // completed run with one shrink per death and no rewind recoveries.
  const auto shrinks = static_cast<int>(sched.deaths.size());
  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    if (std::find(alive.begin(), alive.end(), r) == alive.end()) {
      EXPECT_FALSE(rep.completed);
      EXPECT_NE(rep.failure.find("rank death"), std::string::npos)
          << rep.failure;
      continue;
    }
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, kTarget) << "rank " << r;
    EXPECT_EQ(rep.shrinks, shrinks) << "rank " << r;
    EXPECT_EQ(rep.recoveries, 0) << "rank " << r;
    EXPECT_EQ(rep.sdc_restores, sched.sdc_restores) << "rank " << r;
    EXPECT_EQ(rep.final_world_size, n_final) << "rank " << r;
    EXPECT_GE(rep.checkpoints_saved, 4) << "rank " << r;
  }

  // Bitwise equality, per surviving rank and per gathered panel.
  for (int nr = 0; nr < n_final; ++nr) {
    ASSERT_EQ(got[static_cast<std::size_t>(nr)].size(),
              want[static_cast<std::size_t>(nr)].size())
        << "new rank " << nr;
    EXPECT_EQ(count_diffs(got[static_cast<std::size_t>(nr)],
                          want[static_cast<std::size_t>(nr)]),
              0u)
        << "new rank " << nr;
  }
  for (int p = 0; p < 2; ++p)
    EXPECT_EQ(got_panel[static_cast<std::size_t>(p)],
              want_panel[static_cast<std::size_t>(p)])
        << "panel " << p;

  // The recovery must be visible in the obs event counters, and a
  // survived run is not a failed one — whichever rank died.
  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::rank_death_detected), 1u);
  EXPECT_EQ(ev.count(obs::Event::world_shrunk),
            static_cast<std::uint64_t>(shrinks));
  EXPECT_GE(ev.count(obs::Event::buddy_restore), 1u);
  EXPECT_GE(ev.count(obs::Event::comm_timeout), 1u);
  EXPECT_EQ(ev.count(obs::Event::sdc_restore),
            static_cast<std::uint64_t>(sched.sdc_restores));
  EXPECT_EQ(ev.count(obs::Event::run_failed), 0u);
}

void expect_shrink_to_survive_bitwise(int victim) {
  // Checkpoint cadence 5: the death at 13 restores the step-10 snapshot.
  expect_survives_bitwise({.deaths = {{victim, 13}}, .flips = {}});
}

TEST(RankDeath, ShrinkToSurviveMatchesDirectShrunkRunSync) {
  expect_shrink_to_survive_bitwise(/*victim=*/1);
}

TEST(RankDeath, ShrinkSurvivesDeathOfWorldRankZero) {
  // Root failover: every rank-0-star collective (reductions, gathers,
  // shrink itself) must re-root on the lowest survivor.
  expect_shrink_to_survive_bitwise(/*victim=*/0);
}

// Compound faults: several fault kinds in one run, each ending bitwise
// equal to the unfaulted trajectory on the final layout.  Audit cadence 4.

TEST(CompoundFault, FlipAndDeathAtTheSameStep) {
  // Rank 1 dies at 12 while rank 2's flip sits unaudited: the shrink
  // restores a snapshot that predates the flip.
  expect_survives_bitwise(
      {.deaths = {{1, 12}}, .flips = {{2, 12}}, .audit_interval = 4});
}

TEST(CompoundFault, FlipOnTheShrunkWorld) {
  // Rank 1 dies at 13; rank 2's flip at 16 is caught by the audit on the
  // 3-rank world and repaired from the re-armed own images.
  expect_survives_bitwise({.deaths = {{1, 13}},
                           .flips = {{2, 16}},
                           .audit_interval = 4,
                           .sdc_restores = 1});
}

TEST(CompoundFault, TwoDeathsSurvivedOnOneBudget) {
  // Two shrinks, 4 -> 3 -> 2 ranks, both within the default budget.
  expect_survives_bitwise(
      {.deaths = {{1, 7}, {3, 14}}, .flips = {}, .audit_interval = 4});
}

}  // namespace
}  // namespace yy::resilience
