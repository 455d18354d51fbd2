#include "resilience/resilient_runner.hpp"

#include <algorithm>
#include <utility>

#include "comm/fault.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace yy::resilience {

namespace {

/// Restores the fabric receive deadline on every exit path but a rank's
/// own death.  Holds the communicator by value: a shrink recovery
/// replaces the solver's runner (and with it the communicator the guard
/// was built from), but the copied handle keeps addressing the shared
/// fabric.
struct DeadlineGuard {
  comm::Communicator world;
  int prev;
  bool restore = true;
  ~DeadlineGuard() {
    if (restore) world.set_take_deadline_ms(prev);
  }
};

/// An unset health-verdict deadline inherits the runner's take
/// deadline, so the verdict collective can never outwait a dead peer.
RunPolicy with_inherited_deadlines(RunPolicy p) {
  if (p.health.verdict_deadline_ms <= 0)
    p.health.verdict_deadline_ms = p.take_deadline_ms;
  if (p.sdc.verdict_deadline_ms <= 0)
    p.sdc.verdict_deadline_ms = p.take_deadline_ms;
  return p;
}

/// Applies one scheduled in-memory bit flip to the resident state.
/// Indices are taken modulo the live shapes so a plan written for one
/// layout stays applicable after a shrink.
void apply_bitflip(mhd::Fields& st, const comm::FaultPlan::ComputeFault& f) {
  const int nf = mhd::Fields::kNumFields;
  Field3& fld = *st.all()[static_cast<std::size_t>(((f.field % nf) + nf) % nf)];
  const std::span<double> flat = fld.flat();
  if (flat.empty()) return;
  double& v = flat[static_cast<std::size_t>(f.elem < 0 ? -f.elem : f.elem) %
                   flat.size()];
  auto* bytes = reinterpret_cast<unsigned char*>(&v);
  bytes[((f.byte % 8) + 8) % 8] ^= f.mask;
}

}  // namespace

ResilientRunner::ResilientRunner(core::DistributedSolver& solver,
                                 RunPolicy policy)
    : solver_(solver),
      policy_(with_inherited_deadlines(std::move(policy))),
      ckpt_(policy_.store),
      health_(policy_.health),
      auditor_(policy_.sdc),
      scrubber_(ScrubPolicy{policy_.scrub_interval, policy_.take_deadline_ms}) {
  YY_REQUIRE(policy_.checkpoint_interval >= 1);
  YY_REQUIRE(policy_.max_recoveries >= 0);
  YY_REQUIRE(policy_.dt_backoff > 0.0 && policy_.dt_backoff <= 1.0);
  YY_REQUIRE(policy_.max_shrinks >= 0);
  YY_REQUIRE(policy_.dt_growth >= 1.0);
  YY_REQUIRE(policy_.dt_ramp_fraction > 0.0 &&
             policy_.dt_ramp_fraction <= 1.0);
  YY_REQUIRE(policy_.sdc.audit_interval >= 0);
  YY_REQUIRE(policy_.sdc.slabs_per_field >= 1);
  YY_REQUIRE(policy_.scrub_interval >= 0);
  YY_REQUIRE(policy_.max_sdc_restores >= 0);
}

RunReport ResilientRunner::fail(RunReport r, const std::string& why) {
  r.completed = false;
  r.failure = why;
  r.final_step = solver_.steps_taken();
  r.final_world_size = solver_.runner().world().size();
  if (solver_.runner().world().rank() == 0)
    obs::count_event(obs::Event::run_failed);
  return r;
}

bool ResilientRunner::recover(RunReport& r, double& dt, bool blowup_local) {
  try {
    const comm::Communicator world = solver_.runner().world();
    // Park every live fabric rank, purge all in-flight traffic, release
    // together.  A positive deadline keeps a wedged peer from turning
    // recovery itself into a hang.
    world.recovery_rendezvous(
        policy_.take_deadline_ms > 0 ? policy_.take_deadline_ms * 10 : 0);

    // Two tiers: a retired peer cannot be rewound around — the
    // survivors must shrink; everything else rewinds and retries.
    if (!world.retired_ranks().empty())
      return recover_from_rank_death(r, dt);

    ++r.recoveries;
    if (r.recoveries > policy_.max_recoveries) return false;

    // The rendezvous is collective, so every rank reaches this point
    // and the verdicts below are symmetric across ranks.
    if (world.allreduce_max(blowup_local ? 1.0 : 0.0) > 0.5) {
      dt *= policy_.dt_backoff;
      dt_reduced_ = true;
      if (world.rank() == 0) obs::count_event(obs::Event::dt_backoff);
    }
    if (ckpt_.restore_newest(solver_) < 0) solver_.initialize();
    // The state jumped trajectories: stale audit references would read
    // as corruption on the rewound run.
    auditor_.disarm();
    auditor_.refresh(solver_);
    if (world.rank() == 0) obs::count_event(obs::Event::recovery_rewind);
    // The buddy ring must snapshot the rewound trajectory: a stale
    // replica would restore a state the run never reaches again.
    if (policy_.buddy_checkpoints)
      buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
    return true;
  } catch (const Error&) {
    // Recovery traffic itself failed (e.g. a persistent fault): give up
    // cleanly.  The deadlines bound every peer's wait, so all ranks
    // reach the same conclusion instead of hanging.
    return false;
  }
}

bool ResilientRunner::recover_from_rank_death(RunReport& r, double& dt) {
  // By value: rebuild() swaps the runner and would dangle a reference.
  const comm::Communicator world = solver_.runner().world();
  const int dl = policy_.take_deadline_ms > 0 ? policy_.take_deadline_ms : 0;

  ++r.shrinks;
  if (!policy_.buddy_checkpoints || r.shrinks > policy_.max_shrinks)
    return false;

  const std::vector<int> dead = world.retired_ranks();
  std::vector<int> survivors;
  for (int c = 0; c < world.size(); ++c)
    if (!std::binary_search(dead.begin(), dead.end(), c))
      survivors.push_back(c);
  if (survivors.empty()) return false;
  if (world.rank() == survivors.front())
    obs::count_event(obs::Event::rank_death_detected,
                     static_cast<std::uint64_t>(dead.size()));

  comm::Communicator shrunk = [&] {
    YY_TRACE_SCOPE(obs::Phase::shrink);
    return world.shrink(survivors, dl);
  }();

  // Serve plan: every survivor restores its own patch from its own
  // image; a dead rank's patch comes from its ring buddy's replica —
  // which must itself have survived and hold a validated copy.
  const int n_old = world.size();
  core::DistributedSolver::RebuildSource src;
  src.holder_of.resize(static_cast<std::size_t>(n_old));
  // validate() re-CRCs every byte about to be decoded, so a replica
  // that rotted after its refresh turns the recovery down in the vote
  // below instead of failing mid-rebuild.
  bool ok = buddy_.can_serve(world.rank()) && buddy_.validate(world.rank());
  for (int w = 0; w < n_old; ++w) {
    if (!std::binary_search(dead.begin(), dead.end(), w)) {
      src.holder_of[static_cast<std::size_t>(w)] = w;
      continue;
    }
    const int h = BuddyStore::holder_of(w, n_old);
    src.holder_of[static_cast<std::size_t>(w)] = h;
    if (std::binary_search(dead.begin(), dead.end(), h)) ok = false;
    if (h == world.rank())
      ok = ok && buddy_.can_serve(w) && buddy_.validate(w);
  }

  // Collective agreement on both serveability and the snapshot step: a
  // survivor that missed a refresh (or a lost-with-its-buddy rank)
  // turns the whole recovery down symmetrically.
  const double vote = ok ? static_cast<double>(buddy_.snapshot_step()) : -1.0;
  const double lo = shrunk.allreduce_min(vote, dl);
  const double hi = shrunk.allreduce_max(vote, dl);
  if (lo < 0.0 || lo != hi) return false;
  src.step = static_cast<long long>(lo);
  src.time = buddy_.snapshot_time();
  src.load = [this](int w, mhd::Fields& out) { return buddy_.load(w, out); };

  {
    YY_TRACE_SCOPE(obs::Phase::buddy_restore);
    solver_.rebuild(shrunk, survivors, src);
  }
  dt = buddy_.snapshot_dt();

  const comm::Communicator& nw = solver_.runner().world();
  if (nw.rank() == 0) {
    obs::count_event(obs::Event::world_shrunk);
    obs::count_event(obs::Event::buddy_restore,
                     static_cast<std::uint64_t>(dead.size()));
  }
  r.final_world_size = nw.size();

  // Re-seed both stores on the new world: ring identities changed, and
  // the next transient fault must find a set saved by this layout.
  buddy_.reset();
  buddy_.refresh(solver_, dt, dl);
  auditor_.disarm();
  auditor_.refresh(solver_);
  if (ckpt_.save(solver_, dt, nullptr)) ++r.checkpoints_saved;
  return true;
}

bool ResilientRunner::recover_from_sdc(RunReport& r, double& dt) {
  const comm::Communicator world = solver_.runner().world();
  const int dl = policy_.take_deadline_ms > 0 ? policy_.take_deadline_ms : 0;

  ++r.sdc_restores;
  if (!policy_.buddy_checkpoints || r.sdc_restores > policy_.max_sdc_restores)
    return false;

  // Collective agreement on the snapshot step every patch rewinds to;
  // a rank that missed a refresh turns the tier down symmetrically and
  // the verdict escalates to the checkpoint rewind.
  const double vote =
      buddy_.can_serve(world.rank()) ? static_cast<double>(buddy_.snapshot_step())
                                     : -1.0;
  const double lo = world.allreduce_min(vote, dl);
  const double hi = world.allreduce_max(vote, dl);
  if (lo < 0.0 || lo != hi) return false;

  // Every rank restores its own patch — corruption localized to one
  // rank at detection time may already have crossed a halo exchange,
  // and a local replica decode costs less than proving it has not.
  mhd::Fields scratch(solver_.local_grid());
  bool ok = false;
  {
    YY_TRACE_SCOPE(obs::Phase::buddy_restore);
    ok = buddy_.restore_own(scratch, world, dl);
  }
  if (world.allreduce_min(ok ? 1.0 : 0.0, dl) < 0.5) return false;
  solver_.restore_state(scratch, buddy_.snapshot_time(),
                        buddy_.snapshot_step());
  dt = buddy_.snapshot_dt();  // no backoff: corruption is not instability
  auditor_.disarm();
  auditor_.refresh(solver_);
  if (world.rank() == 0) obs::count_event(obs::Event::sdc_restore);
  return true;
}

RunReport ResilientRunner::run(long long target_steps, double dt) {
  DeadlineGuard guard{solver_.runner().world(),
                      solver_.runner().world().take_deadline_ms()};
  if (policy_.take_deadline_ms > 0)
    guard.world.set_take_deadline_ms(policy_.take_deadline_ms);
  dt_entry_ = dt;
  dt_reduced_ = false;

  RunReport r;
  r.final_world_size = solver_.runner().world().size();
  bool need_arm = policy_.buddy_checkpoints;
  while (solver_.steps_taken() < target_steps) {
    // Re-read every iteration: a shrink recovery replaces the runner.
    const comm::Communicator& world = solver_.runner().world();
    r.final_dt = dt;
    bool blowup_local = false;
    try {
      if (comm::FaultPlan* plan = world.fault_plan()) {
        // A rank scheduled to die does so at the top of the loop after
        // completing its death step: it retires from the fabric (wakes
        // every peer blocked on it) and returns a failed report.  The
        // survivors see its silence as timeouts and shrink around it.
        const int me_w = world.world_rank_of(world.rank());
        const long long ds = plan->rank_death_step(me_w);
        if (ds >= 0 && solver_.steps_taken() >= ds) {
          plan->mark_rank_death_fired(me_w);
          world.retire();
          // The deadline is fabric-wide: restoring it here would leave
          // a survivor blocked forever on a peer that has moved on to
          // recovery, instead of timing out and joining it.
          guard.restore = false;
          return fail(std::move(r), "rank death injected by fault plan");
        }
        // Scheduled silent corruption lands here, between steps with
        // the state at rest — after the audit references were taken,
        // before the audit that should catch it.  Erase-on-take keeps
        // a rewound re-run of the step unfaulted.
        const long long now = solver_.steps_taken();
        for (const comm::FaultPlan::ComputeFault& cf :
             plan->take_compute_faults(me_w, now))
          apply_bitflip(solver_.local_state(), cf);
        for (const comm::FaultPlan::ReplicaTarget t :
             plan->take_replica_rot(me_w, now))
          buddy_.corrupt_image(
              t == comm::FaultPlan::ReplicaTarget::own
                  ? world.rank()
                  : BuddyStore::ward_of(world.rank(), world.size()));
        // Advance the fault clock so min_step-gated rules arm exactly
        // at the step whose communication they should hit.
        plan->note_step(solver_.steps_taken() + 1);
      }

      if (need_arm) {
        // Arm the buddy ring on the entry state, so even a death
        // before the first checkpoint cadence can be survived.
        buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
        auditor_.refresh(solver_);
        need_arm = false;
      }

      if (auditor_.due(solver_.steps_taken())) {
        const SdcVerdict sv = auditor_.audit(solver_);
        if (sv != SdcVerdict::clean) {
          if (world.rank() == 0) obs::count_event(obs::Event::sdc_detected);
          if (!recover_from_sdc(r, dt))
            throw Error(Error::Kind::numeric,
                        std::string("sdc audit verdict: ") +
                            sdc_verdict_name(sv));
          continue;  // re-enter the loop at the restored step
        }
        // A clean audit certifies this step: move the buddy snapshot
        // forward so the SDC tier's rewind window is one audit cadence,
        // not a whole checkpoint cadence.
        if (policy_.buddy_checkpoints)
          buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
      }
      if (policy_.buddy_checkpoints && scrubber_.due(solver_.steps_taken()))
        scrubber_.scrub(buddy_, world);

      solver_.step(dt);
      const long long step = solver_.steps_taken();
      // References are only ever consulted by the next loop-top audit,
      // so they are taken solely on steps that audit will examine — a
      // flip on any other step bakes into the next reference either
      // way, and the per-step full-state CRC would buy no detection.
      if (auditor_.due(step)) auditor_.refresh(solver_);

      if (health_.due(step)) {
        const HealthVerdict v = health_.check(solver_, dt);
        if (v == HealthVerdict::cfl_collapse)  // collective verdict:
          return fail(std::move(r),            // every rank fails alike
                      "timestep collapsed below the policy minimum");
        if (v != HealthVerdict::healthy) {
          blowup_local = true;
          throw Error(Error::Kind::numeric,
                      std::string("solver health check failed: ") +
                          verdict_name(v));
        }
        if (dt_reduced_) {
          // Bounded re-ramp: a healthy sweep lets dt grow back toward
          // the CFL-stable value, never past the dt the run started
          // with.  stable_dt() is an exact allreduce-min, so every
          // rank computes the same ramp.
          const double cap =
              std::min(dt_entry_,
                       policy_.dt_ramp_fraction * solver_.stable_dt());
          if (dt < cap) {
            dt = std::min(dt * policy_.dt_growth, cap);
            if (world.rank() == 0) obs::count_event(obs::Event::dt_reramp);
          }
          if (dt >= cap) dt_reduced_ = false;
        }
      }
      if (step % policy_.checkpoint_interval == 0 || step == target_steps)
        if (ckpt_.save(solver_, dt, world.fault_plan())) {
          ++r.checkpoints_saved;
          // Piggyback the diskless replicas on the same cadence; the
          // save's collective verdict keeps the ring symmetric.
          if (policy_.buddy_checkpoints)
            buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
        }
    } catch (const Error& e) {
      if (e.kind() == Error::Kind::timeout)
        obs::count_event(obs::Event::comm_timeout);
      else if (e.kind() == Error::Kind::corruption)
        obs::count_event(obs::Event::comm_corruption);
      if (!recover(r, dt, blowup_local))
        return fail(std::move(r),
                    std::string("unrecoverable after ") +
                        std::to_string(r.recoveries) + " recoveries" +
                        (r.shrinks > 0
                             ? " and " + std::to_string(r.shrinks) +
                                   " shrink attempts"
                             : "") +
                        ": " + e.what());
    }
  }
  r.completed = true;
  r.final_step = solver_.steps_taken();
  r.final_dt = dt;
  r.final_world_size = solver_.runner().world().size();
  return r;
}

}  // namespace yy::resilience
