/// \file checkpoint_manager.hpp
/// Distributed checkpoint sets with retention, rotation and collective
/// validated restore.
///
/// Mirrors the paper's production discipline at our scale: each rank
/// writes its own patch file (full local arrays, ghosts included, so a
/// restore is bitwise the state the run had), world rank 0 writes a
/// small manifest, and the set commits only if *every* rank's write
/// succeeded (allreduce).  The last `keep_last` sets are retained and
/// older ones rotated away.  restore_newest() walks the sets newest
/// first and collectively agrees on the newest one every rank can CRC-
/// validate — a torn or bit-rotted patch file demotes the whole set,
/// never half-loads it.
#pragma once

#include <string>
#include <vector>

#include "core/distributed_solver.hpp"
#include "resilience/checkpoint2.hpp"

namespace yy::comm {
class FaultPlan;
}

namespace yy::resilience {

/// Identity of this rank's patch image (grid shape, time, step, dt,
/// world size/rank, layout, panel): shared by the disk sets and the
/// buddy replicas, which validate an image against it.
CheckpointMetaV2 patch_meta(const core::DistributedSolver& s, double dt);

class CheckpointManager {
 public:
  struct Options {
    std::string dir;              ///< directory for patch + manifest files
    std::string basename = "ckpt";
    int keep_last = 2;            ///< retained checkpoint sets (>= 1)
  };

  explicit CheckpointManager(Options opt);

  /// Collective over the solver's world.  Each rank writes its patch
  /// atomically; the set commits only if all ranks succeeded (failed
  /// sets are deleted everywhere).  `faults`, when given, is consulted
  /// for scheduled I/O faults (fail / torn commit) keyed by
  /// (step, world rank).  Returns the collective verdict.
  bool save(core::DistributedSolver& s, double dt,
            comm::FaultPlan* faults = nullptr);

  /// Collective: loads the newest set whose patch files validate on
  /// every rank, restoring solver state/time/step.  Returns the step of
  /// the restored set, or -1 if none survived validation.  `dt_out`
  /// (optional) receives the dt recorded at save time.
  long long restore_newest(core::DistributedSolver& s,
                           double* dt_out = nullptr);

  /// Collective: loads one specific step (all ranks must validate).
  bool load_step(core::DistributedSolver& s, long long step,
                 double* dt_out = nullptr);

  /// Steps committed by this manager instance, oldest first.
  const std::vector<long long>& committed_steps() const { return steps_; }

  /// Steps discoverable on disk from this rank's patch files (for
  /// restarting a fresh process), oldest first.
  std::vector<long long> discover_steps(
      const core::DistributedSolver& s) const;

  std::string patch_path(long long step, int world_rank) const;
  std::string manifest_path(long long step) const;

 private:
  bool validate_patch(const core::DistributedSolver& s, long long step,
                      mhd::Fields& scratch, CheckpointMetaV2& meta) const;
  void remove_set(const core::DistributedSolver& s, long long step) const;
  void write_manifest(const core::DistributedSolver& s, long long step,
                      double dt) const;

  Options opt_;
  std::vector<long long> steps_;  // committed by this instance, ascending
};

}  // namespace yy::resilience
