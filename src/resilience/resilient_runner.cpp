#include "resilience/resilient_runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Bounded dt re-ramp after a backoff: at every healthy scheduled
/// health check dt grows by kDtGrowth, up to min(run-entry dt,
/// kDtRampFraction × the current CFL-stable dt).
constexpr double kDtGrowth = 1.25;
constexpr double kDtRampFraction = 0.95;

/// run() has no time goal, and run_to() no entry dt to cap the re-ramp.
constexpr double kForever = std::numeric_limits<double>::infinity();

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

/// The image sources a ladder rung restores from.
enum class Rung { own_images, ring_replicas, disk };
constexpr const char* kRungName[] = {"own-image", "ring-replica", "disk"};

/// One row of the recovery plan table (DESIGN.md §9).
struct Plan {
  const char* cause;  ///< as failure clauses name it
  bool shrink;        ///< world: shrink to the survivors before the rung
  bool backoff;       ///< dt × dt_backoff, and the re-ramp is armed
  Rung rung;          ///< buddy rungs restore the snapshot's dt, disk keeps dt
  int fallback;       ///< row tried when the rung is refused (-1: give up)
};

/// Indexed by ResilientRunner::Cause {comm_fault, blowup, rank_loss, sdc}.
/// Every non-SDC row is entered through a rendezvous that reclassifies
/// the fault, so a retired peer turns any cause into a rank loss.
constexpr Plan kPlan[] = {
    {"comm fault", false, false, Rung::disk, -1},
    {"blow-up", false, true, Rung::disk, -1},
    {"rank loss", true, false, Rung::ring_replicas, -1},
    {"sdc verdict", false, false, Rung::own_images, 0},
};

/// Why a rung was refused, in rising priority; '%' stands for the world
/// rank the reason concerns.  A refusal travels as one key, so a single
/// allreduce_max agrees the highest reason and, of those, the lowest rank.
enum Reason : int {
  budget_spent = 1, peer_refused, own_image_invalid, replica_invalid,
  replica_lost
};
constexpr const char* kReasonText[] = {
    "",
    "recovery budget spent",
    "snapshot steps disagree",
    "own image of world rank % missing or invalid",
    "replica held on world rank % missing or invalid",
    "replica of world rank % lost with its holder",
};
constexpr long long kRankSpan = 1 << 20;
constexpr long long refusal(Reason why, int world_rank) {
  return why * kRankSpan + kRankSpan - 1 - world_rank;
}
std::string reason_text(long long key) {
  std::string text = kReasonText[key / kRankSpan];
  if (const auto at = text.find('%'); at != std::string::npos)
    text.replace(at, 1, std::to_string(kRankSpan - 1 - key % kRankSpan));
  return text;
}

/// Collective agreement on serveability and on the snapshot step every
/// patch rewinds to: one rank that cannot serve (`local` is its refusal)
/// or that missed a refresh turns the rung down on every rank alike.
long long agree_snapshot(const comm::Communicator& c, long long local,
                         long long snapshot_step, int dl) {
  const double vote = local ? -1.0 : static_cast<double>(snapshot_step);
  const double lo = c.allreduce_min(vote, dl);
  if (lo >= 0.0 && lo == c.allreduce_max(vote, dl)) return 0;
  return local ? local : refusal(peer_refused, c.world_rank_of(c.rank()));
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
  YY_REQUIRE(policy_.sdc.audit_interval >= 0);
  YY_REQUIRE(policy_.sdc.slabs_per_field >= 1);
  YY_REQUIRE(policy_.scrub_interval >= 0);
}

RunReport ResilientRunner::fail(RunReport r, const std::string& why) {
  const comm::Communicator& world = solver_.runner().world();
  r.completed = false;
  r.failure = why;
  r.final_step = solver_.steps_taken();
  r.final_time = solver_.time();
  r.final_world_size = world.size();
  // One count per failed run, from the lowest live rank: a victim that
  // retired before calling this never counts one.
  const std::vector<int> gone = world.retired_ranks();
  int lowest = 0;
  while (std::binary_search(gone.begin(), gone.end(), lowest)) ++lowest;
  if (world.rank() == lowest) obs::count_event(obs::Event::run_failed);
  return r;
}

long long ResilientRunner::own_images_rung(const comm::Communicator& world,
                                           int dl) {
  // can_serve, not validate: a rotted own image still gets its chance
  // to be refetched from the holder inside restore_own.
  const int me = world.world_rank_of(world.rank());
  if (const long long no = agree_snapshot(
          world,
          buddy_.can_serve(world.rank()) ? 0 : refusal(own_image_invalid, me),
          buddy_.snapshot_step(), dl))
    return no;

  // Every rank restores its own patch — corruption localized to one
  // rank at detection time may already have crossed a halo exchange,
  // and a local replica decode costs less than proving it has not.
  mhd::Fields scratch(solver_.local_grid());
  bool ok = false;
  {
    YY_TRACE_SCOPE(obs::Phase::buddy_restore);
    ok = buddy_.restore_own(scratch, world, dl);
  }
  if (world.allreduce_min(ok ? 1.0 : 0.0, dl) < 0.5)
    return refusal(ok ? peer_refused : own_image_invalid, me);
  solver_.restore_state(scratch, buddy_.snapshot_time(),
                        buddy_.snapshot_step());
  if (world.rank() == 0) obs::count_event(obs::Event::sdc_restore);
  return 0;
}

long long ResilientRunner::ring_replicas_rung(
    const comm::Communicator& world, const comm::Communicator& shrunk,
    const std::vector<int>& survivors, int dl) {
  // Serve plan: every survivor restores its own patch from its own
  // image; a dead rank's patch comes from its ring buddy's replica,
  // which must itself have survived.  validate() re-CRCs every byte
  // about to be decoded, so an image that rotted after its refresh
  // turns the rung down in the vote instead of failing mid-rebuild.
  const auto serves = [&](int w) {
    return buddy_.can_serve(w) && buddy_.validate(w);
  };
  const int n_old = world.size();
  const int me = world.world_rank_of(world.rank());
  const auto lives = [&](int w) {
    return std::binary_search(survivors.begin(), survivors.end(), w);
  };
  long long local = serves(world.rank()) ? 0 : refusal(own_image_invalid, me);
  core::DistributedSolver::RebuildSource src;
  for (int w = 0; w < n_old; ++w) {
    const int h = lives(w) ? w : BuddyStore::holder_of(w, n_old);
    src.holder_of.push_back(h);
    if (h == w) continue;
    if (!lives(h))
      local = std::max(local, refusal(replica_lost, world.world_rank_of(w)));
    else if (h == world.rank() && !serves(w))
      local = std::max(local, refusal(replica_invalid, me));
  }
  if (const long long no =
          agree_snapshot(shrunk, local, buddy_.snapshot_step(), dl))
    return no;

  src.step = buddy_.snapshot_step();
  src.time = buddy_.snapshot_time();
  src.load = [this](int w, mhd::Fields& out) { return buddy_.load(w, out); };
  {
    YY_TRACE_SCOPE(obs::Phase::buddy_restore);
    solver_.rebuild(shrunk, survivors, src);
  }
  if (solver_.runner().world().rank() == 0) {
    obs::count_event(obs::Event::world_shrunk);
    obs::count_event(obs::Event::buddy_restore,
                     static_cast<std::uint64_t>(n_old) - survivors.size());
  }
  return 0;
}

std::string ResilientRunner::recover(RunReport& r, double& dt,
                                     Cause suspected) {
  Cause cause = suspected;
  const int dl = std::max(0, policy_.take_deadline_ms);
  const bool in_budget = ++ladder_entries_ <= policy_.max_recoveries;
  std::string why;  // each row tried, with its rung's agreed refusal
  try {
    for (;;) {
      const comm::Communicator world = solver_.runner().world();  // by value
      if (cause != Cause::sdc) {
        // Park every live fabric rank, purge all in-flight traffic and
        // release together, so every rank sees the same retired set.  An
        // SDC verdict is already collective and arrives between steps.
        world.recovery_rendezvous(dl * 10);
        cause = !world.retired_ranks().empty() ? Cause::rank_loss
                : world.allreduce_max(suspected == Cause::blowup) > 0.5
                    ? Cause::blowup
                    : Cause::comm_fault;
      }
      const Plan& plan = kPlan[static_cast<int>(cause)];
      why += (why.empty() ? "" : ", then ") + std::string(plan.cause);

      std::vector<int> survivors;
      comm::Communicator on = world;  // where the rung votes and agrees
      if (plan.shrink) {
        const std::vector<int> dead = world.retired_ranks();
        why += " of world rank";
        for (int c = 0; c < world.size(); ++c) {
          if (std::binary_search(dead.begin(), dead.end(), c))
            why += " " + std::to_string(world.world_rank_of(c));
          else
            survivors.push_back(c);
        }
        if (world.rank() == survivors.front())
          obs::count_event(obs::Event::rank_death_detected, dead.size());
        YY_TRACE_SCOPE(obs::Phase::shrink);
        on = world.shrink(survivors, dl);
      }

      long long no = refusal(budget_spent, 0);
      if (in_budget) {
        if (plan.backoff && std::isfinite(dt)) {  // see run_to()
          dt *= policy_.dt_backoff;
          dt_reduced_ = true;
          if (world.rank() == 0) obs::count_event(obs::Event::dt_backoff);
        }
        switch (plan.rung) {
          case Rung::own_images:
            ++r.sdc_restores;
            try {
              no = own_images_rung(world, dl);
            } catch (const Error&) {
              // Traffic died under the rung (e.g. a holder retired): fall
              // back through the rendezvous, which reclassifies the fault.
              why += ", own-image rung failed on its traffic";
              cause = static_cast<Cause>(plan.fallback);
              continue;
            }
            break;
          case Rung::ring_replicas:
            ++r.shrinks;
            no = ring_replicas_rung(world, on, survivors, dl);
            break;
          case Rung::disk:
            ++r.recoveries;
            if (ckpt_.restore_newest(solver_) < 0) solver_.initialize();
            if (world.rank() == 0)
              obs::count_event(obs::Event::recovery_rewind);
            no = 0;
            break;
        }
      }

      if (no) {
        // Failure path only: every survivor names the same reason and
        // the same (earliest) step.
        why += std::string(", ") + kRungName[static_cast<int>(plan.rung)] +
               " rung refused: " +
               reason_text(static_cast<long long>(
                   on.allreduce_max(static_cast<double>(no), dl)));
        if (in_budget && plan.fallback >= 0) {
          cause = static_cast<Cause>(plan.fallback);
          continue;
        }
        const auto step = static_cast<long long>(
            on.allreduce_min(static_cast<double>(solver_.steps_taken()), dl));
        return "unrecoverable at step " + std::to_string(step) + ": " + why;
      }

      // Re-arm on the restored trajectory: stale audit references would
      // read as corruption, and the replicas (after a shrink, with new
      // ring identities, and a disk set) must hold the state run from.
      auditor_.disarm();
      auditor_.refresh(solver_);
      r.final_world_size = solver_.runner().world().size();
      if (plan.rung != Rung::disk) dt = buddy_.snapshot_dt();  // no backoff
      if (plan.rung == Rung::own_images) return {};  // images unchanged
      if (plan.shrink) buddy_.reset();
      buddy_.refresh(solver_, dt, dl);
      if (plan.shrink && ckpt_.save(solver_, dt, nullptr))
        ++r.checkpoints_saved;
      return {};
    }
  } catch (const Error& e) {
    // Recovery traffic itself failed (e.g. a persistent fault): give up.
    // The deadlines bound every wait, so no rank hangs; the fabric can
    // no longer agree a reason, so this rank states its own.
    return "unrecoverable at step " + std::to_string(solver_.steps_taken()) +
           ": " + why + ", recovery traffic failed here (" + e.what() + ")";
  }
}

RunReport ResilientRunner::run(long long target_steps, double dt) {
  return advance(target_steps, kForever, false, dt);
}

RunReport ResilientRunner::run_to(double t_end) {
  YY_REQUIRE(std::isfinite(t_end));
  // +inf: no CFL dt taken yet.  The first estimate replaces it, and a
  // blow-up before it has no dt to back off.
  return advance(std::numeric_limits<long long>::max(), t_end, true,
                 kForever);
}

RunReport ResilientRunner::advance(long long target_steps, double t_end,
                                   bool cfl, double dt) {
  DeadlineGuard guard{solver_.runner().world(),
                      solver_.runner().world().take_deadline_ms()};
  if (policy_.take_deadline_ms > 0)
    guard.world.set_take_deadline_ms(policy_.take_deadline_ms);
  dt_entry_ = dt;
  dt_reduced_ = false;
  ladder_entries_ = 0;
  const auto done = [&] {
    return solver_.steps_taken() >= target_steps || solver_.time() >= t_end;
  };

  RunReport r;
  r.final_world_size = solver_.runner().world().size();
  bool need_arm = true;
  while (!done()) {
    // Re-read every iteration: a shrink recovery replaces the runner.
    const comm::Communicator& world = solver_.runner().world();
    r.final_dt = dt;
    Cause suspected = Cause::comm_fault;
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
          suspected = Cause::sdc;
          throw Error(Error::Kind::numeric,
                      std::string("sdc audit verdict: ") +
                          sdc_verdict_name(sv));
        }
        // A clean audit certifies this step: move the buddy snapshot
        // forward so the SDC row's rewind window is one audit cadence,
        // not a whole checkpoint cadence.
        buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
      }
      if (scrubber_.due(solver_.steps_taken()))
        scrubber_.scrub(buddy_, world);

      double step_dt = dt;
      if (cfl) {
        // Taken on the audited state.  stable_dt() is an exact
        // allreduce-min, so every rank steps alike and lands on t_end.
        const double stable = solver_.stable_dt();
        if (!std::isfinite(stable)) {
          suspected = Cause::blowup;
          throw Error(Error::Kind::numeric, "CFL timestep is not finite");
        }
        dt = dt_reduced_ ? std::min(dt, stable) : stable;
        step_dt = std::min(dt, t_end - solver_.time());
      }
      solver_.step(step_dt);
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
          suspected = Cause::blowup;
          throw Error(Error::Kind::numeric,
                      std::string("solver health check failed: ") +
                          verdict_name(v));
        }
        if (dt_reduced_) {
          // Bounded re-ramp: a healthy sweep lets dt grow back toward
          // the CFL-stable value, never past the dt run() started
          // with.  stable_dt() is an exact allreduce-min, so every
          // rank computes the same ramp.
          const double cap =
              std::min(dt_entry_,
                       kDtRampFraction * solver_.stable_dt());
          if (dt < cap) {
            dt = std::min(dt * kDtGrowth, cap);
            if (world.rank() == 0) obs::count_event(obs::Event::dt_reramp);
          }
          if (dt >= cap) dt_reduced_ = false;
        }
      }
      if (step % policy_.checkpoint_interval == 0 || done())
        if (ckpt_.save(solver_, dt, world.fault_plan())) {
          ++r.checkpoints_saved;
          // Piggyback the diskless replicas on the same cadence; the
          // save's collective verdict keeps the ring symmetric.
          buddy_.refresh(solver_, dt, policy_.take_deadline_ms);
        }
    } catch (const Error& e) {
      if (e.kind() == Error::Kind::timeout)
        obs::count_event(obs::Event::comm_timeout);
      else if (e.kind() == Error::Kind::corruption)
        obs::count_event(obs::Event::comm_corruption);
      const std::string why = recover(r, dt, suspected);
      if (!why.empty())
        return fail(std::move(r), why + " [trigger: " + e.what() + "]");
    }
  }
  r.completed = true;
  r.final_step = solver_.steps_taken();
  r.final_time = solver_.time();
  r.final_dt = dt;
  r.final_world_size = solver_.runner().world().size();
  return r;
}

}  // namespace yy::resilience
