/// \file resilient_runner.hpp
/// Fault-tolerant run control for the distributed solver.
///
/// Drives DistributedSolver::step with checkpoints, diskless buddy
/// replicas, health checks and optional SDC audits, and sends every
/// fault down one recovery ladder.  One loop serves both stop rules: a
/// step count at a fixed dt (run) and a simulated time at the CFL dt
/// (run_to).  The ladder classifies the fault once — comm fault,
/// blow-up, rank loss (a retired peer; overrides any other cause) or
/// SDC verdict — and follows that cause's row of a const plan table
/// (DESIGN.md §9): shrink the world or not, back dt off or not, and
/// restore from which image rung — every rank's own buddy image, the
/// ring replicas of the dead, or the newest disk set.  Every
/// rung agrees on a snapshot step, restores, re-arms the audit and the
/// replicas, and counts events; RunPolicy::max_recoveries bounds the
/// ladder entries of a run.  A recovered run is bitwise an unfaulted
/// one (after a shrink, one launched on the shrunk layout); a run the
/// ladder cannot save ends in a failure whose leading clause names the
/// cause, step and refused rungs identically on every survivor.
#pragma once

#include <string>
#include <vector>

#include "core/distributed_solver.hpp"
#include "resilience/buddy_store.hpp"
#include "resilience/checkpoint_manager.hpp"
#include "resilience/health.hpp"
#include "resilience/scrubber.hpp"
#include "resilience/sdc_audit.hpp"

namespace yy::resilience {

struct RunPolicy {
  CheckpointManager::Options store;   ///< where checkpoint sets live
  long long checkpoint_interval = 10; ///< save every N steps (>= 1)
  HealthPolicy health;                ///< scan cadence + thresholds
  /// Recovery-ladder entries per run() or run_to() call before giving
  /// up, whatever the cause: a rewind, a shrink and an SDC restore use
  /// one each, and an SDC restore that falls back to the disk set still
  /// uses one.
  int max_recoveries = 3;
  /// dt multiplier after a blow-up; dt then re-ramps at every healthy
  /// scheduled health check, ×1.25 up to min(run-entry dt, 0.95 × the
  /// CFL-stable dt) — run_to has no entry dt, so there the cap is
  /// 0.95 × the CFL-stable dt alone.
  double dt_backoff = 0.5;
  int take_deadline_ms = 2000;        ///< receive deadline while running
                                      ///  (0 keeps blocking receives)
  /// Silent-data-corruption auditing (off by default: audit_interval 0
  /// keeps byte-for-byte the unaudited run loop).  When on, references
  /// are taken on the steps the audit examines and verified every
  /// sdc.audit_interval steps; a dirty collective verdict enters the
  /// ladder's SDC row.
  SdcPolicy sdc;
  /// Background replica scrub cadence in steps (0 = off).
  long long scrub_interval = 0;
};

struct RunReport {
  bool completed = false;
  long long final_step = 0;
  double final_time = 0.0;    ///< solver time when the run ended
  /// dt rule's value when the run ended: run's (backed-off, re-ramped)
  /// dt, or run_to's last CFL dt before the landing clip (+inf if it
  /// stepped none).
  double final_dt = 0.0;
  int recoveries = 0;         ///< disk-rung rewinds performed
  int checkpoints_saved = 0;  ///< committed sets during this run
  int shrinks = 0;            ///< ring-replica (shrink) rungs attempted
  int sdc_restores = 0;       ///< own-image rungs attempted on SDC verdicts
  int final_world_size = 0;   ///< world size when the run ended
  std::string failure;        ///< empty when completed
};

class ResilientRunner {
 public:
  /// Collective: all ranks construct together with identical policy.
  /// When policy.health.verdict_deadline_ms is unset (<= 0), it
  /// inherits take_deadline_ms so the health collective can never
  /// outwait a dead peer.
  ResilientRunner(core::DistributedSolver& solver, RunPolicy policy);

  /// Collective: advances the solver to `target_steps` total steps with
  /// fixed timestep `dt`, recovering from faults along the way.  Every
  /// surviving rank returns an identical verdict (completed/failure,
  /// recoveries, shrinks); a rank scheduled to die retires from the
  /// fabric and returns a failed report naming the injected death.
  RunReport run(long long target_steps, double dt);

  /// Collective: advances the solver to simulated time `t_end`, each
  /// step at dt = min(stable_dt(), t_end − time()), so the last step
  /// lands on t_end.  After a blow-up dt is backed off and re-ramps
  /// exactly as in run(), under min(that dt, stable_dt()).  A
  /// non-finite stable_dt() enters the ladder as a blow-up before the
  /// step is taken.  Returns a completed report without stepping when
  /// time() >= t_end already; otherwise as run().
  RunReport run_to(double t_end);

  CheckpointManager& checkpoints() { return ckpt_; }

 private:
  /// What set the ladder off; each cause has one row in the plan table.
  enum class Cause { comm_fault, blowup, rank_loss, sdc };

  /// The loop behind run() and run_to(): steps until `target_steps`
  /// steps or simulated time `t_end`, whichever comes first.  With
  /// `cfl` each step takes its dt from the CFL rule (run_to), else `dt`
  /// is fixed (run).
  RunReport advance(long long target_steps, double t_end, bool cfl,
                    double dt);
  RunReport fail(RunReport r, const std::string& why);
  /// The recovery ladder (collective).  Returns "" once the state is
  /// restored, else the failure clause every survivor agrees on.
  std::string recover(RunReport& r, double& dt, Cause suspected);
  /// The buddy-image rungs: 0 once restored, else a refusal key (see
  /// the .cpp) naming why.
  long long own_images_rung(const comm::Communicator& world, int dl);
  long long ring_replicas_rung(const comm::Communicator& world,
                               const comm::Communicator& shrunk,
                               const std::vector<int>& survivors, int dl);

  core::DistributedSolver& solver_;
  RunPolicy policy_;
  CheckpointManager ckpt_;
  HealthMonitor health_;
  BuddyStore buddy_;
  SdcAuditor auditor_;
  ReplicaScrubber scrubber_;
  double dt_entry_ = 0.0;     ///< dt run() was entered with (+inf: run_to)
  bool dt_reduced_ = false;   ///< a backoff is in effect; re-ramp allowed
  int ladder_entries_ = 0;    ///< recover() calls during the current run
};

}  // namespace yy::resilience
