/// \file events.hpp
/// Named resilience event counters, the discrete-event complement of
/// the span metrics: checkpoints saved/rejected, restarts, recovery
/// rewinds, comm faults, health verdicts.  Counters are process-global
/// and thread-safe (rank threads of the in-process runtime all count
/// into the same registry); collect_metrics() snapshots them into the
/// MetricsSummary so recovery activity shows up in yy_metrics CSV/JSON
/// next to the per-phase timings.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace yy::obs {

enum class Event : int {
  checkpoint_saved = 0,     ///< collective save committed (world rank 0)
  checkpoint_save_failed,   ///< collective save aborted and discarded
  checkpoint_rejected,      ///< a stored checkpoint failed validation on load
  restart_loaded,           ///< state restored from a checkpoint
  recovery_rewind,          ///< a fault triggered a rewind-and-retry
  dt_backoff,               ///< dt reduced after a numerical blow-up
  comm_timeout,             ///< a receive deadline expired (per rank)
  comm_corruption,          ///< an envelope failed CRC validation (per rank)
  health_check,             ///< collective health sweeps performed
  health_nonfinite,         ///< NaN/Inf detected in the state
  health_blowup,            ///< field magnitude above the blow-up threshold
  health_cfl_collapse,      ///< stable dt collapsed below the floor
  rank_death_detected,      ///< a peer was confirmed dead (per survivor)
  world_shrunk,             ///< the world shrank to the survivor set
  buddy_restore,            ///< a dead rank's patch restored from replica
  dt_reramp,                ///< dt grown back toward the CFL-stable dt
  stale_tmp_swept,          ///< orphaned checkpoint *.tmp removed at startup
  health_denormal,          ///< denormal flood detected in the state
  sdc_audit,                ///< collective SDC audits performed (rank 0)
  sdc_mismatch,             ///< a slab checksum diverged from its reference
  sdc_invariant_trip,       ///< a physics invariant probe breached its bound
  sdc_detected,             ///< collective SDC verdict was not clean (rank 0)
  sdc_restore,              ///< state restored from buddy replicas after SDC
  replica_scrubbed,         ///< buddy-replica scrub rounds completed (rank 0)
  replica_rot_detected,     ///< a held buddy replica failed its re-CRC
  replica_refetched,        ///< a fresh replica re-fetched from the partner
  health_unphysical,        ///< ρ <= 0 or p <= 0 detected in the interior
  run_failed,               ///< resilient run gave up (structured failure)
};

inline constexpr int kNumEvents = 28;

// A new Event must bump kNumEvents (and the name table in events.cpp,
// pinned by its own static_assert) before it compiles.
static_assert(static_cast<int>(Event::run_failed) + 1 == kNumEvents,
              "Event enum and kNumEvents are out of sync: keep "
              "`run_failed` last and kNumEvents == last + 1");

const char* event_name(Event e);

class EventCounters {
 public:
  static EventCounters& global();

  void add(Event e, std::uint64_t n = 1) {
    c_[static_cast<std::size_t>(e)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t count(Event e) const {
    return c_[static_cast<std::size_t>(e)].load(std::memory_order_relaxed);
  }
  std::array<std::uint64_t, kNumEvents> snapshot() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumEvents> c_{};
};

/// Counts into the global registry.
inline void count_event(Event e, std::uint64_t n = 1) {
  EventCounters::global().add(e, n);
}

}  // namespace yy::obs
