/// \file stepstats.hpp
/// Per-step, per-rank time-series records for the telemetry layer.
///
/// The span stream (trace.hpp) is the raw timeline; a `StepStats` is
/// one solver step on one rank folded down to where the time went —
/// per-phase seconds and bytes, the step's dt and CFL headroom, the
/// global event-counter deltas observed across the step, and how many
/// spans the trace budget evicted meanwhile.  Ranks keep their recent
/// history in a bounded `StepStatsRing` (memory is fixed no matter how
/// long the run is); `aggregate_step` reduces the same step's records
/// from every rank into the cross-rank view — min/mean/max/argmax per
/// phase, the load-imbalance ratio, the straggler rank and the
/// compute-vs-wait split — that the telemetry heartbeat and the
/// telemetry.csv/json time series report (telemetry.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/events.hpp"
#include "obs/hwcounters.hpp"
#include "obs/trace.hpp"

namespace yy::obs {

/// True for phases that are time spent waiting on other ranks (halo,
/// overset, collective reductions); the rest count as compute for the
/// imbalance attribution and the compute-vs-wait split.
bool is_wait_phase(Phase p);

/// One solver step on one rank.
struct StepStats {
  std::int64_t step = -1;
  double dt = 0.0;            ///< dt actually advanced this step
  double cfl_limit_dt = 0.0;  ///< last collective stable dt (0 = unknown)
  double wall_seconds = 0.0;  ///< step wall clock, begin_step..end_step
  std::array<double, kNumPhases> seconds{};
  std::array<std::uint64_t, kNumPhases> bytes{};
  /// Per-phase performance-counter deltas this step (hwcounters.hpp);
  /// all zero when the rank thread has no counter group bound.
  std::array<CounterValues, kNumPhases> ctr{};
  /// Delta of the process-global event counters (events.hpp) observed
  /// by this rank across the step.  The counters are shared by all
  /// ranks, so cross-rank aggregation takes the max, not the sum.
  std::array<std::uint64_t, kNumEvents> event_delta{};
  std::uint64_t spans_dropped = 0;  ///< budget evictions during the step

  double phase_seconds() const;    ///< Σ seconds[] (leaf spans: no overlap)
  double compute_seconds() const;  ///< Σ over non-wait phases
  double wait_seconds() const;     ///< Σ over wait phases
};

/// Fixed-capacity ring of the most recent StepStats; push overwrites
/// the oldest once full, so multi-thousand-step runs hold memory flat.
class StepStatsRing {
 public:
  explicit StepStatsRing(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return buf_.size(); }
  std::uint64_t total_pushed() const { return pushed_; }

  void push(const StepStats& s);
  void clear();

  /// i = 0 is the oldest retained entry.
  const StepStats& from_oldest(std::size_t i) const;
  /// i = 0 is the most recent entry.
  const StepStats& from_newest(std::size_t i) const;

 private:
  std::vector<StepStats> buf_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< slot the next push writes (once full)
  std::uint64_t pushed_ = 0;
};

/// Cross-rank reduction of one phase within one step.
struct PhaseAgg {
  double min_s = 0.0;
  double mean_s = 0.0;
  double max_s = 0.0;
  double sum_s = 0.0;
  int argmax_rank = -1;       ///< world rank attaining max_s
  std::uint64_t bytes = 0;    ///< Σ over ranks
  CounterValues ctr{};        ///< Σ counter deltas over ranks
};

/// Cross-rank view of one step.
struct StepAgg {
  std::int64_t step = -1;
  double dt = 0.0;
  double cfl_limit_dt = 0.0;
  int ranks = 0;
  std::array<PhaseAgg, kNumPhases> phase{};
  /// Load imbalance: max over ranks of compute seconds divided by the
  /// mean (1.0 = perfectly balanced; the bulk-synchronous step runs at
  /// the max, so (imbalance-1)/imbalance of compute time is waste).
  double imbalance = 1.0;
  int straggler = -1;  ///< world rank with the most compute this step
  double compute_mean_s = 0.0, compute_max_s = 0.0;
  double wait_mean_s = 0.0, wait_max_s = 0.0;
  double wall_max_s = 0.0;  ///< critical path: slowest rank's step wall
  std::array<std::uint64_t, kNumEvents> event_delta{};  ///< max over ranks
  std::uint64_t spans_dropped = 0;                      ///< Σ over ranks

  const PhaseAgg& phase_agg(Phase p) const {
    return phase[static_cast<std::size_t>(p)];
  }
  /// Fraction of the step's mean traced time spent waiting.
  double wait_fraction() const;
};

/// Reduces the same step's records from every rank; index into
/// `per_rank` is the world rank.  Requires at least one entry.
StepAgg aggregate_step(const std::vector<StepStats>& per_rank);

/// Fixed-length flat encoding for the telemetry gather (one double per
/// field; integers round-trip exactly up to 2^53 — counter values on a
/// multi-GHz core stay under that for runs of ~3 months).  The six
/// trailing blocks per phase are the CounterValues fields.
inline constexpr std::size_t kCounterDoubles = 6;
inline constexpr std::size_t kStepStatsDoubles =
    5 + (2 + kCounterDoubles) * static_cast<std::size_t>(kNumPhases) +
    static_cast<std::size_t>(kNumEvents);
void pack_step_stats(const StepStats& s, double* out);
StepStats unpack_step_stats(const double* in);

}  // namespace yy::obs
