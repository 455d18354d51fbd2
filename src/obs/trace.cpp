#include "obs/trace.hpp"

#include <algorithm>
#include <iterator>

namespace yy::obs {

namespace {

// Indexed by Phase; the static_assert pins the table to the enum so a
// new phase cannot compile without a name (see kNumPhases assert in
// trace.hpp for the matching count-side pin).
constexpr const char* kPhaseNames[] = {
    "rhs",       "halo_wait", "overset_wait", "boundary",
    "reduce",    "io",        "shrink",       "buddy_restore",
    "sdc_audit", "scrub",     "other",
};
static_assert(std::size(kPhaseNames) == static_cast<std::size_t>(kNumPhases),
              "phase_name table and kNumPhases are out of sync");

}  // namespace

const char* phase_name(Phase p) {
  const int i = static_cast<int>(p);
  return i >= 0 && i < kNumPhases ? kPhaseNames[i] : "?";
}

void RankTrace::evict_oldest() {
  // Bulk-evict a quarter of the budget so the O(n) front erase is paid
  // once per budget/4 records, not on every one.
  const std::size_t n =
      std::min(std::max<std::size_t>(budget_ / 4, 1), spans_.size());
  spans_.erase(spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n));
  evicted_ += n;
}

std::int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

RankTrace& TraceRecorder::rank_trace(int rank) {
  std::lock_guard lock(mu_);
  for (RankTrace& t : ranks_)
    if (t.rank() == rank) return t;
  ranks_.push_back(RankTrace(rank));
  return ranks_.back();
}

std::vector<const RankTrace*> TraceRecorder::traces() const {
  std::lock_guard lock(mu_);
  std::vector<const RankTrace*> out;
  out.reserve(ranks_.size());
  for (const RankTrace& t : ranks_) out.push_back(&t);
  std::sort(out.begin(), out.end(),
            [](const RankTrace* a, const RankTrace* b) {
              return a->rank() < b->rank();
            });
  return out;
}

namespace detail {

namespace {
thread_local RankTrace* tls_trace = nullptr;
}  // namespace

RankTrace* current_trace() { return tls_trace; }
void set_current_trace(RankTrace* t) { tls_trace = t; }

}  // namespace detail

}  // namespace yy::obs
