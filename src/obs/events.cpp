#include "obs/events.hpp"

#include <iterator>

namespace yy::obs {

namespace {

// Indexed by Event; pinned to the enum like kPhaseNames in trace.cpp.
constexpr const char* kEventNames[] = {
    "checkpoint_saved", "checkpoint_save_failed", "checkpoint_rejected",
    "restart_loaded",   "recovery_rewind",        "dt_backoff",
    "comm_timeout",     "comm_corruption",        "health_check",
    "health_nonfinite", "health_blowup",          "health_cfl_collapse",
    "rank_death_detected", "world_shrunk",        "buddy_restore",
    "dt_reramp",        "stale_tmp_swept",        "health_denormal",
    "sdc_audit",        "sdc_mismatch",           "sdc_invariant_trip",
    "sdc_detected",     "sdc_restore",            "replica_scrubbed",
    "replica_rot_detected", "replica_refetched",  "health_unphysical",
    "run_failed",
};
static_assert(std::size(kEventNames) == static_cast<std::size_t>(kNumEvents),
              "event_name table and kNumEvents are out of sync");

}  // namespace

const char* event_name(Event e) {
  const int i = static_cast<int>(e);
  return i >= 0 && i < kNumEvents ? kEventNames[i] : "?";
}

EventCounters& EventCounters::global() {
  static EventCounters instance;
  return instance;
}

std::array<std::uint64_t, kNumEvents> EventCounters::snapshot() const {
  std::array<std::uint64_t, kNumEvents> out{};
  for (int i = 0; i < kNumEvents; ++i)
    out[static_cast<std::size_t>(i)] =
        c_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  return out;
}

void EventCounters::reset() {
  for (auto& a : c_) a.store(0, std::memory_order_relaxed);
}

}  // namespace yy::obs
