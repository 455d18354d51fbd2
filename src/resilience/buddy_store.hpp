/// \file buddy_store.hpp
/// Diskless buddy checkpoints: every rank keeps its own latest
/// validated YYCORE02 patch image in memory plus a CRC-verified replica
/// of one buddy's image, paired on a ring (rank r's replica lives on
/// rank (r+1) % world_size).  When a rank dies, the survivors can
/// restore its patch from the buddy's replica without touching the
/// filesystem — the store is refreshed piggyback on the
/// CheckpointManager cadence, so a replica is never older than the
/// newest on-disk set.
///
/// Replication rides the ordinary message fabric (tags 410/411 on the
/// world communicator) and reuses the exact on-disk encoding
/// (encode_checkpoint_v2), so a replica is validated with the same
/// CRC/shape machinery as a file — a torn or bit-flipped replica is
/// rejected and the previously validated one is retained.
#pragma once

#include <cstddef>
#include <vector>

#include "comm/communicator.hpp"
#include "core/distributed_solver.hpp"
#include "resilience/checkpoint2.hpp"

namespace yy::resilience {

class BuddyStore {
 public:
  /// The rank holding `rank`'s replica (ring pairing).
  static int holder_of(int rank, int world_size) {
    return (rank + 1) % world_size;
  }
  /// The rank whose replica `rank` holds.
  static int ward_of(int rank, int world_size) {
    return (rank - 1 + world_size) % world_size;
  }

  /// Collective over the solver's world: encodes this rank's current
  /// state as a YYCORE02 image, ships it to its holder and validates
  /// the image received from its ward (full CRC + identity check).
  /// Returns this rank's local verdict; on a failed validation the
  /// previously validated replica is kept.  `deadline_ms` bounds the
  /// replica receive (<= 0 = fabric default).
  bool refresh(core::DistributedSolver& s, double dt, int deadline_ms = 0);

  /// True once refresh() succeeded: both own image and (when the world
  /// has more than one rank) the ward's replica are validated.
  bool armed() const { return armed_; }

  /// Identity of the snapshots currently held (valid when armed()).
  long long snapshot_step() const { return own_meta_.step; }
  double snapshot_time() const { return own_meta_.time; }
  double snapshot_dt() const { return own_meta_.dt; }

  /// Whether load(w) can succeed here: w is this rank (own image held)
  /// or its ward (replica validated at the same snapshot step).  Does
  /// not require armed() — a rank whose incoming replica failed
  /// validation can still serve its own patch.
  bool can_serve(int w) const;

  /// Decodes old world rank `w`'s snapshot into `out` (must be shaped
  /// as w's patch full arrays).  False when not served here or the
  /// image fails validation.
  bool load(int w, mhd::Fields& out) const;

  /// Full local verdict on a held image: CRC/structural sweep plus the
  /// identity check (right rank, current snapshot step).  Unlike
  /// can_serve(), this re-reads every byte — it is what the scrubber,
  /// restore_own and the rank-loss vote use to notice rot after adoption.
  bool validate(int w) const;

  /// Collective scrub round over the solver's world (tags 414-416):
  /// re-validates my ward's replica and, on a failed verdict,
  /// re-fetches a fresh copy from the ward (which still holds the
  /// authoritative own image) instead of discovering the rot at
  /// restore time.  Also heals a replica whose original refresh was
  /// rejected.  Every rank with a non-empty own image after a refresh
  /// must participate.  Returns true when my ward replica is valid
  /// after the round (or there is no buddy to hold one for).
  bool repair_ward(const comm::Communicator& world, int deadline_ms = 0);

  /// Collective restore round (tags 417-419): validates my own image
  /// and, when it fails, re-fetches my replica from my holder; then
  /// decodes the image into `out` (shaped as my patch full arrays).
  /// Returns false when my patch cannot be served validated.
  bool restore_own(mhd::Fields& out, const comm::Communicator& world,
                   int deadline_ms = 0);

  /// Fault-injection hook (comm::FaultPlan replica-rot schedule): XORs
  /// `mask` into one payload byte of the image held for rank `w` (this
  /// rank or its ward).  No-op when no such image is held.
  void corrupt_image(int w, unsigned char mask = 0x01);

  /// Drops everything (ring identities change after a shrink; the
  /// store must be reset and refreshed on the new world).
  void reset();

 private:
  int my_rank_ = -1;
  int ward_rank_ = -1;
  std::vector<unsigned char> own_;   ///< my own latest validated image
  std::vector<unsigned char> ward_;  ///< my ward's validated replica
  CheckpointMetaV2 own_meta_, ward_meta_;
  bool armed_ = false;
};

}  // namespace yy::resilience
