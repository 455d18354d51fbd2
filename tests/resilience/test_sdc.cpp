/// Silent-data-corruption defense: the compute-fault injector, the
/// slab-CRC auditor, the physics invariant probes, replica scrubbing,
/// and the buddy-restore recovery tier.
///
/// The acceptance scenario of the PR: a scheduled in-memory bit flip
/// on one rank — at 1, 2 and 4 ranks per panel, sync and overlapped
/// stepping — is detected within one audit cadence, recovered by
/// restoring every patch from the diskless buddy images, and the run
/// completes BITWISE equal, per rank and per gathered panel, to the
/// unfaulted run.  Rot in the buddy images themselves is healed by the
/// scrubber (or ring-refetched during the restore), and unscrubbed rot
/// turns a later restore down cleanly instead of crashing mid-rebuild.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "core/distributed_solver.hpp"
#include "obs/events.hpp"
#include "resilience/resilient_runner.hpp"
#include "resilience/scrubber.hpp"
#include "resilience/sdc_audit.hpp"
#include "support/equivalence.hpp"

namespace yy::resilience {
namespace {

using testsupport::count_diffs;
using testsupport::field_data;
using testsupport::flatten;

std::string fresh_dir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name +
                          "." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(SdcFaultPlan, ComputeScheduleFiresOnceAndErases) {
  comm::FaultPlan plan;
  comm::FaultPlan::ComputeFault f;
  f.field = 5;
  f.elem = 1234;
  f.byte = 0;
  f.mask = 0x01;
  plan.schedule_bitflip(/*world_rank=*/1, /*step=*/8, f);
  plan.schedule_bitflip(/*world_rank=*/1, /*step=*/8, f);  // two at once

  EXPECT_TRUE(plan.take_compute_faults(0, 8).empty());  // wrong rank
  EXPECT_TRUE(plan.take_compute_faults(1, 7).empty());  // wrong step
  EXPECT_EQ(plan.compute_faults_fired(), 0u);

  const auto due = plan.take_compute_faults(1, 8);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].field, 5);
  EXPECT_EQ(due[0].elem, 1234);
  EXPECT_EQ(plan.compute_faults_fired(), 2u);
  // Erase-on-take: a rewound re-run of step 8 is not re-flipped.
  EXPECT_TRUE(plan.take_compute_faults(1, 8).empty());
  EXPECT_EQ(plan.compute_faults_fired(), 2u);
}

TEST(SdcFaultPlan, ReplicaRotScheduleFiresOnceAndErases) {
  comm::FaultPlan plan;
  plan.schedule_replica_rot(2, 11, comm::FaultPlan::ReplicaTarget::ward);
  EXPECT_TRUE(plan.take_replica_rot(2, 10).empty());
  const auto due = plan.take_replica_rot(2, 11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], comm::FaultPlan::ReplicaTarget::ward);
  EXPECT_TRUE(plan.take_replica_rot(2, 11).empty());
  EXPECT_EQ(plan.replica_rots_fired(), 1u);
}

/// Direct auditor use on a live 2-rank solver: a clean audit, then a
/// hand-flipped bit caught collectively, with the local suspicion on
/// the flipped rank only.
TEST(SdcAuditor, DetectsInMemoryFlipCollectively) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  std::vector<int> verdicts(2, -1), suspects(2, -1);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 1);
    solver.initialize();
    const double dt = solver.stable_dt();
    solver.step(dt);

    SdcPolicy pol;
    pol.audit_interval = 1;
    SdcAuditor auditor(pol);
    auditor.refresh(solver);
    ASSERT_TRUE(auditor.armed());
    ASSERT_EQ(auditor.audit(solver), SdcVerdict::clean);

    if (w.rank() == 0) {
      // One low mantissa bit: invisible to any magnitude threshold.
      auto* bytes = reinterpret_cast<unsigned char*>(
          solver.local_state().ar.flat().data() + 100);
      bytes[0] ^= 0x01;
    }
    const SdcVerdict v = auditor.audit(solver);
    verdicts[static_cast<std::size_t>(w.rank())] = static_cast<int>(v);
    suspects[static_cast<std::size_t>(w.rank())] =
        auditor.suspect_local() ? 1 : 0;
  });
  // Collective verdict on both ranks; local evidence only on rank 0.
  EXPECT_EQ(verdicts[0], static_cast<int>(SdcVerdict::checksum_mismatch));
  EXPECT_EQ(verdicts[1], static_cast<int>(SdcVerdict::checksum_mismatch));
  EXPECT_EQ(suspects[0], 1);
  EXPECT_EQ(suspects[1], 0);
}

/// Direct scrub round: a corrupted ward replica is detected by re-CRC
/// and replaced with a fresh copy from the partner, in place.
TEST(SdcScrub, RepairsCorruptReplicaInPlace) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  obs::EventCounters::global().reset();
  std::vector<int> healed(2, -1);
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, 1, 1);
    solver.initialize();
    const double dt = solver.stable_dt();

    BuddyStore store;
    ASSERT_TRUE(store.refresh(solver, dt, 5000));
    const int ward = BuddyStore::ward_of(w.rank(), w.size());
    ASSERT_TRUE(store.validate(ward));

    if (w.rank() == 1) store.corrupt_image(ward);
    EXPECT_EQ(store.validate(ward), w.rank() != 1);

    ReplicaScrubber scrubber(ScrubPolicy{/*interval=*/1,
                                         /*deadline_ms=*/5000});
    EXPECT_TRUE(scrubber.due(1));
    const bool ok = scrubber.scrub(store, w);
    healed[static_cast<std::size_t>(w.rank())] =
        ok && store.validate(ward) ? 1 : 0;

    // The repaired replica must decode — rot never reaches a restore.
    mhd::Fields out(solver.local_grid());
    EXPECT_TRUE(store.load(ward, out));
  });
  EXPECT_EQ(healed[0], 1);
  EXPECT_EQ(healed[1], 1);
  const auto& ev = obs::EventCounters::global();
  EXPECT_EQ(ev.count(obs::Event::replica_rot_detected), 1u);
  EXPECT_EQ(ev.count(obs::Event::replica_refetched), 1u);
  EXPECT_GE(ev.count(obs::Event::replica_scrubbed), 1u);
}

/// The PR acceptance run: a single mantissa-bit flip on world rank 1 at
/// step kFlip is caught by the audit at the same step (the flip lands
/// between steps, the audit cadence divides kFlip), every patch is
/// restored from the buddy images, and the completed run is bitwise
/// the unfaulted trajectory.  With `rot_own`, the victim's own buddy
/// image is rotted at the same step, forcing the restore to ring-fetch
/// the replica back from its holder.  With `rot_holder` too, that
/// replica has rotted as well: the own-image rung is refused and the
/// ladder falls back to the disk rung (no set yet, so a replay from the
/// initial state), still bitwise.
void expect_sdc_recovery_bitwise(int pt, int pp, bool overlap, bool rot_own,
                                 bool rot_holder = false) {
  core::SimulationConfig cfg = testsupport::small_trajectory_config();
  cfg.overlap = overlap;
  const int ranks = 2 * pt * pp;
  constexpr long long kTarget = 12;
  constexpr long long kFlip = 8;
  constexpr int kCadence = 4;
  constexpr int kVictim = 1;
  const std::string dir =
      fresh_dir("sdc_" + std::to_string(ranks) + (overlap ? "_ov" : "_sync") +
                (rot_own ? "_rot" : "") + (rot_holder ? "_holder" : ""));
  obs::EventCounters::global().reset();

  // ---- Reference: the unfaulted trajectory on the same layout.
  std::vector<std::vector<double>> want(static_cast<std::size_t>(ranks));
  std::vector<std::vector<double>> want_panel(2);
  {
    comm::Runtime rt(ranks);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, pt, pp);
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

  // ---- Faulted: same layout under the resilient runner with the SDC
  // audit on; one flip (plus optional own-image rot) at step kFlip.
  std::vector<std::vector<double>> got(static_cast<std::size_t>(ranks));
  std::vector<std::vector<double>> got_panel(2);
  std::vector<RunReport> reports(static_cast<std::size_t>(ranks));
  auto plan = std::make_shared<comm::FaultPlan>();
  {
    comm::Runtime rt(ranks);
    comm::FaultPlan::ComputeFault f;
    f.field = 5;   // A_r
    f.elem = 1234;
    f.byte = 0;    // low mantissa byte: only the CRC can see this
    f.mask = 0x01;
    plan->schedule_bitflip(kVictim, kFlip, f);
    if (rot_own)
      plan->schedule_replica_rot(kVictim, kFlip,
                                 comm::FaultPlan::ReplicaTarget::own);
    if (rot_holder)
      plan->schedule_replica_rot(BuddyStore::holder_of(kVictim, ranks), kFlip,
                                 comm::FaultPlan::ReplicaTarget::ward);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, pt, pp);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "sdc", 2};
      policy.checkpoint_interval = 50;  // the audit owns the snapshots
      policy.take_deadline_ms = 3000;
      policy.sdc.audit_interval = kCadence;
      ResilientRunner runner(solver, policy);
      const RunReport rep = runner.run(kTarget, dt);
      reports[static_cast<std::size_t>(w.rank())] = rep;
      if (!rep.completed) return;
      got[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
      for (int p = 0; p < 2; ++p) {
        const Field3 gathered = solver.gather_field(
            0, p == 0 ? yinyang::Panel::yin : yinyang::Panel::yang);
        if (w.rank() == 0)
          got_panel[static_cast<std::size_t>(p)] = field_data(gathered);
      }
    });
    rt.install_fault_plan(nullptr);
  }
  EXPECT_EQ(plan->compute_faults_fired(), 1u);

  for (int r = 0; r < ranks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.final_step, kTarget) << "rank " << r;
    EXPECT_EQ(rep.sdc_restores, 1) << "rank " << r;
    EXPECT_EQ(rep.recoveries, rot_holder ? 1 : 0) << "rank " << r;
    EXPECT_EQ(rep.shrinks, 0) << "rank " << r;
  }

  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(got[static_cast<std::size_t>(r)].size(),
              want[static_cast<std::size_t>(r)].size())
        << "rank " << r;
    EXPECT_EQ(count_diffs(got[static_cast<std::size_t>(r)],
                          want[static_cast<std::size_t>(r)]),
              0u)
        << "rank " << r;
  }
  for (int p = 0; p < 2; ++p)
    EXPECT_EQ(got_panel[static_cast<std::size_t>(p)],
              want_panel[static_cast<std::size_t>(p)])
        << "panel " << p;

  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::sdc_audit), 3u);
  EXPECT_EQ(ev.count(obs::Event::sdc_detected), 1u);
  EXPECT_GE(ev.count(obs::Event::sdc_mismatch), 1u);
  EXPECT_EQ(ev.count(obs::Event::sdc_restore), rot_holder ? 0u : 1u);
  EXPECT_EQ(ev.count(obs::Event::recovery_rewind), rot_holder ? 1u : 0u);
  if (rot_own) {
    EXPECT_GE(ev.count(obs::Event::replica_rot_detected), 1u);
    if (rot_holder)  // the refetched copy failed validation too
      EXPECT_EQ(ev.count(obs::Event::replica_refetched), 0u);
    else
      EXPECT_GE(ev.count(obs::Event::replica_refetched), 1u);
  }
}

TEST(SdcRecovery, BitflipRestoredBitwise2RanksSync) {
  expect_sdc_recovery_bitwise(1, 1, /*overlap=*/false, /*rot_own=*/false);
}
TEST(SdcRecovery, BitflipRestoredBitwise2RanksOverlapped) {
  expect_sdc_recovery_bitwise(1, 1, /*overlap=*/true, /*rot_own=*/false);
}
TEST(SdcRecovery, BitflipRestoredBitwise4RanksSync) {
  expect_sdc_recovery_bitwise(1, 2, /*overlap=*/false, /*rot_own=*/false);
}
TEST(SdcRecovery, BitflipRestoredBitwise4RanksOverlapped) {
  expect_sdc_recovery_bitwise(1, 2, /*overlap=*/true, /*rot_own=*/false);
}
TEST(SdcRecovery, BitflipRestoredBitwise8RanksSync) {
  expect_sdc_recovery_bitwise(2, 2, /*overlap=*/false, /*rot_own=*/false);
}
TEST(SdcRecovery, BitflipRestoredBitwise8RanksOverlapped) {
  expect_sdc_recovery_bitwise(2, 2, /*overlap=*/true, /*rot_own=*/false);
}

TEST(SdcRecovery, OwnImageRotRefetchedDuringRestore) {
  expect_sdc_recovery_bitwise(1, 2, /*overlap=*/false, /*rot_own=*/true);
}

TEST(SdcRecovery, RotOnBothCopiesFallsBackToDiskRung) {
  expect_sdc_recovery_bitwise(1, 2, /*overlap=*/false, /*rot_own=*/true,
                              /*rot_holder=*/true);
}

/// Probe-only mode (checksums off): an exponent-byte flip in ρ sends
/// the energy budget off by orders of magnitude between audits; the
/// rate bound trips, the buddy tier restores, and the run still
/// completes bitwise-unfaulted.
TEST(SdcRecovery, InvariantProbeCatchesEnergyBreach) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr long long kTarget = 8;
  const std::string dir = fresh_dir("sdc_energy");
  obs::EventCounters::global().reset();

  std::vector<std::vector<double>> want(2), got(2);
  {
    comm::Runtime rt(2);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 1);
      solver.initialize();
      const double dt = solver.stable_dt();
      for (long long i = 0; i < kTarget; ++i) solver.step(dt);
      want[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
  }

  std::vector<RunReport> reports(2);
  {
    comm::Runtime rt(2);
    auto plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::ComputeFault f;
    f.field = 0;  // ρ
    f.elem = 4321;
    f.byte = 7;   // high exponent byte: a magnitude catastrophe
    f.mask = 0x40;
    plan->schedule_bitflip(/*world_rank=*/1, /*step=*/6, f);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 1);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "sdc", 2};
      policy.checkpoint_interval = 50;
      policy.take_deadline_ms = 3000;
      policy.sdc.audit_interval = 2;
      policy.sdc.checksums = false;  // isolate the probe
      policy.sdc.max_energy_rate = 1.0;
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
      got[static_cast<std::size_t>(w.rank())] =
          flatten(solver.local_state());
    });
    rt.install_fault_plan(nullptr);
  }

  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(reports[static_cast<std::size_t>(r)].completed)
        << reports[static_cast<std::size_t>(r)].failure;
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].sdc_restores, 1);
  }
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(count_diffs(got[static_cast<std::size_t>(r)],
                          want[static_cast<std::size_t>(r)]),
              0u)
        << "rank " << r;
  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::sdc_invariant_trip), 1u);
  EXPECT_EQ(ev.count(obs::Event::sdc_mismatch), 0u);  // checksums were off
  EXPECT_EQ(ev.count(obs::Event::sdc_restore), 1u);
}

/// The divB probe guards the derived-field pipeline: B = ∇×A is
/// divergence-free at the discretization floor, but the floor scales
/// with |A| — an exponent catastrophe in A blows the cancellation
/// error past any drift bound even with the energy probe disabled.
TEST(SdcRecovery, DivbDriftProbeCatchesPotentialCorruption) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr long long kTarget = 8;
  const std::string dir = fresh_dir("sdc_divb");
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(2);
  {
    comm::Runtime rt(2);
    auto plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::ComputeFault f;
    f.field = 5;  // A_r
    f.elem = 4321;
    f.byte = 7;
    f.mask = 0x40;
    plan->schedule_bitflip(/*world_rank=*/0, /*step=*/6, f);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 1);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "sdc", 2};
      policy.checkpoint_interval = 50;
      policy.take_deadline_ms = 3000;
      policy.sdc.audit_interval = 2;
      policy.sdc.checksums = false;
      policy.sdc.max_divb_drift = 1e-3;
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
    });
    rt.install_fault_plan(nullptr);
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(reports[static_cast<std::size_t>(r)].completed)
        << reports[static_cast<std::size_t>(r)].failure;
    EXPECT_EQ(reports[static_cast<std::size_t>(r)].sdc_restores, 1);
  }
  EXPECT_GE(obs::EventCounters::global().count(obs::Event::sdc_invariant_trip),
            1u);
}

/// Scrub-then-die: the replica a later rank-death restore depends on
/// rots after its refresh; the scheduled scrub detects and re-fetches
/// it in time, so the shrink recovery still completes.
TEST(SdcScrub, ScrubHealsRotBeforeRankDeathRestore) {
  core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr int kRanks = 4;
  constexpr long long kTarget = 20;
  constexpr long long kDeath = 13;  // checkpoint cadence 5 -> snapshot 10
  constexpr int kVictim = 1;
  // Rank 2 holds rank 1's replica (ring); rot it after the step-10
  // refresh, scrub at 12, death at 13.
  const int holder = BuddyStore::holder_of(kVictim, kRanks);
  const std::string dir = fresh_dir("sdc_scrub_death");
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(kRanks);
  auto plan = std::make_shared<comm::FaultPlan>();
  {
    comm::Runtime rt(kRanks);
    plan->schedule_rank_death(kVictim, kDeath);
    plan->schedule_replica_rot(holder, 11,
                               comm::FaultPlan::ReplicaTarget::ward);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "sd", 2};
      policy.checkpoint_interval = 5;
      policy.take_deadline_ms = 3000;
      policy.scrub_interval = 4;  // scrubs at 4, 8, 12 — before the death
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
    });
    rt.install_fault_plan(nullptr);
  }
  EXPECT_EQ(plan->replica_rots_fired(), 1u);
  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    if (r == kVictim) {
      EXPECT_FALSE(rep.completed);
      continue;
    }
    EXPECT_TRUE(rep.completed) << "rank " << r << ": " << rep.failure;
    EXPECT_EQ(rep.shrinks, 1) << "rank " << r;
    EXPECT_EQ(rep.final_world_size, 3) << "rank " << r;
  }
  const auto& ev = obs::EventCounters::global();
  EXPECT_GE(ev.count(obs::Event::replica_scrubbed), 2u);
  EXPECT_GE(ev.count(obs::Event::replica_rot_detected), 1u);
  EXPECT_GE(ev.count(obs::Event::replica_refetched), 1u);
  EXPECT_GE(ev.count(obs::Event::buddy_restore), 1u);
}

/// Negative control for the scrubber: the same rot with scrubbing off
/// must fail the restore *cleanly* — the full re-validation in the
/// serve vote turns the recovery down symmetrically, no crash, no
/// partial rebuild.
TEST(SdcScrub, UnscrubbedRotFailsRestoreCleanly) {
  core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr int kRanks = 4;
  constexpr long long kTarget = 20;
  constexpr long long kDeath = 13;
  constexpr int kVictim = 1;
  const int holder = BuddyStore::holder_of(kVictim, kRanks);
  const std::string dir = fresh_dir("sdc_noscrub_death");
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(kRanks);
  {
    comm::Runtime rt(kRanks);
    auto plan = std::make_shared<comm::FaultPlan>();
    plan->schedule_rank_death(kVictim, kDeath);
    plan->schedule_replica_rot(holder, 11,
                               comm::FaultPlan::ReplicaTarget::ward);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "sd", 2};
      policy.checkpoint_interval = 5;
      policy.take_deadline_ms = 3000;  // scrub_interval stays 0: no scrubbing
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(kTarget, dt);
    });
    rt.install_fault_plan(nullptr);
  }
  for (int r = 0; r < kRanks; ++r) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_FALSE(rep.completed) << "rank " << r;
    if (r == kVictim) {
      EXPECT_NE(rep.failure.find("rank death"), std::string::npos);
    } else {
      EXPECT_NE(rep.failure.find("unrecoverable"), std::string::npos)
          << "rank " << r << ": " << rep.failure;
    }
  }
  EXPECT_GE(obs::EventCounters::global().count(obs::Event::run_failed), 1u);
}

/// A compound fault the ladder cannot save: rank 1's state flips and its
/// own buddy image rots at step 8, and rank 2 — the holder of rank 1's
/// replica — dies at the same step.  The death overrides the SDC
/// verdict, and the shrink is refused because rank 1's own image fails
/// validation.  Every survivor must fail with the same leading clause,
/// naming the cause, the step and the refused rung with its reason.
TEST(SdcScrub, RefusedShrinkFailsWithOneAgreedClause) {
  core::SimulationConfig cfg = testsupport::small_trajectory_config();
  constexpr int kRanks = 4;
  const std::string dir = fresh_dir("sdc_refused_shrink");
  obs::EventCounters::global().reset();

  std::vector<RunReport> reports(kRanks);
  {
    comm::Runtime rt(kRanks);
    auto plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::ComputeFault f;
    f.field = 5;
    f.elem = 1234;
    f.byte = 0;
    f.mask = 0x01;
    plan->schedule_bitflip(1, 8, f);
    plan->schedule_replica_rot(1, 8, comm::FaultPlan::ReplicaTarget::own);
    plan->schedule_rank_death(2, 8);
    rt.install_fault_plan(plan);
    rt.run([&](comm::Communicator& w) {
      core::DistributedSolver solver(cfg, w, 1, 2);
      solver.initialize();
      const double dt = solver.stable_dt();
      RunPolicy policy;
      policy.store = {dir, "rs", 2};
      policy.checkpoint_interval = 5;
      policy.take_deadline_ms = 3000;
      policy.sdc.audit_interval = 4;
      ResilientRunner runner(solver, policy);
      reports[static_cast<std::size_t>(w.rank())] = runner.run(20, dt);
    });
    rt.install_fault_plan(nullptr);
  }

  EXPECT_NE(reports[2].failure.find("rank death"), std::string::npos)
      << reports[2].failure;
  const std::string want =
      "unrecoverable at step 8: rank loss of world rank 2, ring-replica "
      "rung refused: own image of world rank 1 missing or invalid";
  for (const int r : {0, 1, 3}) {
    const RunReport& rep = reports[static_cast<std::size_t>(r)];
    EXPECT_FALSE(rep.completed) << "rank " << r;
    // The agreed clause leads; this rank's own trigger may follow it.
    EXPECT_EQ(rep.failure.substr(0, rep.failure.find(" [trigger: ")), want)
        << "rank " << r << ": " << rep.failure;
  }
  EXPECT_EQ(obs::EventCounters::global().count(obs::Event::run_failed), 1u);
}

}  // namespace
}  // namespace yy::resilience
