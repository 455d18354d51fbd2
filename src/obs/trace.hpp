/// \file trace.hpp
/// Low-overhead per-rank phase tracing for the distributed solver.
///
/// The paper's performance story (List 1, Table II) hinges on knowing
/// where each step's time goes — compute vs. halo exchange vs. Yin-Yang
/// overset interpolation.  `src/perf/es_model` *predicts* those splits;
/// this module *measures* them on real runs so the two can be
/// cross-checked (see perf/proginf.hpp's measured report).
///
/// Design:
///  * A `TraceRecorder` owns one `RankTrace` span buffer per rank.
///    Spans are appended only by the owning rank's thread, so the hot
///    path is a bounds-checked vector push with no locks; the registry
///    mutex is taken only at bind time (once per rank per run).
///  * Ranks bind themselves with a `ScopedRankBind` at the top of their
///    rank function; `PhaseScope` (usually via the YY_TRACE_SCOPE
///    macros) then records [start,end) spans against the thread-local
///    binding.  Unbound threads pay one branch per scope and record
///    nothing, so instrumented library code is free when tracing is off.
///  * Phase spans are *leaf-level and mutually non-overlapping* per
///    rank: instrumentation wraps disjoint segments of the step (each
///    stage's rhs sweep with its fused update, each exchange, ...),
///    never an enclosing region, so exporters and tests may rely
///    on per-thread span monotonicity.
///  * Compiling with -DYY_TRACE_LEVEL=0 replaces every scope with an
///    empty `NullPhaseScope`, removing the instrumentation entirely.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "obs/hwcounters.hpp"

#ifndef YY_TRACE_LEVEL
#define YY_TRACE_LEVEL 1
#endif

namespace yy::obs {

/// Span taxonomy (see DESIGN.md "Observability").  Keep phase_name()
/// and kNumPhases in sync.
enum class Phase : int {
  rhs = 0,       ///< one integrator stage: RHS sweep + fused stage update
  halo_wait,     ///< intra-panel halo exchange (pack+send+wait+unpack)
  overset_wait,  ///< inter-panel overset interpolation exchange
  boundary,      ///< physical wall values and radial ghost fill
  reduce,        ///< collective reductions (CFL dt, energies)
  io,            ///< snapshot gather / file output
  shrink,        ///< rebuilding the communicator over the survivors
  buddy_restore, ///< redistribution/restore from buddy replicas
  sdc_audit,     ///< silent-data-corruption audit (slab CRCs + probes)
  scrub,         ///< background buddy-replica scrubbing round
  other,         ///< anything else worth a span
};

inline constexpr int kNumPhases = 11;

// A new Phase must bump kNumPhases (and the name table in trace.cpp,
// whose size is pinned by its own static_assert) before it compiles.
static_assert(static_cast<int>(Phase::other) + 1 == kNumPhases,
              "Phase enum and kNumPhases are out of sync: keep `other` "
              "last and kNumPhases == last + 1");

const char* phase_name(Phase p);

/// One recorded [t0,t1) interval on one rank.
struct Span {
  Phase phase = Phase::other;
  std::int64_t t0_ns = 0;       ///< start, ns since recorder epoch
  std::int64_t t1_ns = 0;       ///< end, ns since recorder epoch
  std::int64_t step = -1;       ///< solver step at record time (-1 none)
  std::uint64_t bytes = 0;      ///< message bytes attributed to the span
  /// Performance-counter delta across the span (hwcounters.hpp): all
  /// zero unless the recording thread had a ScopedCounterBind active.
  CounterValues ctr{};
};

class TraceRecorder;

/// Per-rank span buffer.  Appended only by the owning rank's thread
/// while recording; read by exporters after the run (the harness joins
/// rank threads before exporting, which publishes the buffers).
class RankTrace {
 public:
  int rank() const { return rank_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Current solver step, stamped onto subsequent spans.
  void set_step(std::int64_t step) { step_ = step; }
  std::int64_t step() const { return step_; }

  void record(Phase phase, std::int64_t t0_ns, std::int64_t t1_ns,
              std::uint64_t bytes) {
    record(phase, t0_ns, t1_ns, bytes, CounterValues{});
  }

  void record(Phase phase, std::int64_t t0_ns, std::int64_t t1_ns,
              std::uint64_t bytes, const CounterValues& ctr) {
    if (budget_ != 0 && spans_.size() >= budget_) evict_oldest();
    spans_.push_back({phase, t0_ns, t1_ns, step_, bytes, ctr});
    ++recorded_total_;
  }

  /// Caps the span buffer for long runs: once it holds `budget` spans,
  /// recording another first evicts the oldest quarter in one bulk move
  /// (amortized O(1) per record).  0 = unbounded, the seed behaviour.
  /// Telemetry consumers (obs/telemetry.hpp) downsample spans into
  /// per-step StepStats before eviction can reach them, so a bounded
  /// buffer loses only raw timeline detail, not the time series.
  void set_span_budget(std::size_t budget) { budget_ = budget; }
  std::size_t span_budget() const { return budget_; }

  /// Spans ever recorded / evicted by the budget (monotonic).  The
  /// buffer holds the last recorded_total() - evicted() of them.
  std::uint64_t recorded_total() const { return recorded_total_; }
  std::uint64_t evicted() const { return evicted_; }

 private:
  friend class TraceRecorder;
  explicit RankTrace(int rank) : rank_(rank) { spans_.reserve(1024); }
  void evict_oldest();
  int rank_;
  std::int64_t step_ = -1;
  std::vector<Span> spans_;
  std::size_t budget_ = 0;
  std::uint64_t recorded_total_ = 0;
  std::uint64_t evicted_ = 0;
};

/// Monotonic nanoseconds since a process-wide epoch (first use).  One
/// shared epoch keeps spans from different recorders and threads on a
/// single comparable timeline; exporters re-zero to the earliest span.
std::int64_t now_ns();

/// Registry of per-rank buffers.
class TraceRecorder {
 public:
  TraceRecorder() = default;

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Returns (creating on first use) the buffer for `rank`.  Safe to
  /// call concurrently from rank threads.
  RankTrace& rank_trace(int rank);

  /// Stable snapshot of all registered rank buffers, ordered by rank.
  /// Call only after the recording threads have been joined.
  std::vector<const RankTrace*> traces() const;

 private:
  mutable std::mutex mu_;                 // guards registration only
  std::deque<RankTrace> ranks_;           // deque: stable addresses
};

namespace detail {
RankTrace* current_trace();
void set_current_trace(RankTrace* t);
}  // namespace detail

/// Binds the calling thread to a rank buffer for its lifetime; place at
/// the top of the rank function.  Nesting restores the previous binding.
class ScopedRankBind {
 public:
  ScopedRankBind(TraceRecorder& rec, int rank)
      : prev_(detail::current_trace()) {
    detail::set_current_trace(&rec.rank_trace(rank));
  }
  ~ScopedRankBind() { detail::set_current_trace(prev_); }
  ScopedRankBind(const ScopedRankBind&) = delete;
  ScopedRankBind& operator=(const ScopedRankBind&) = delete;

 private:
  RankTrace* prev_;
};

/// Stamps the current step onto the calling rank's future spans (no-op
/// when the thread is unbound).
inline void set_current_step(std::int64_t step) {
  if (RankTrace* t = detail::current_trace()) t->set_step(step);
}

/// RAII leaf span: opens at construction, records at destruction.
/// All methods are no-ops on unbound threads.  When the thread also has
/// a ScopedCounterBind active, the span additionally carries the
/// counter delta (cycles, instructions, cache traffic, charged flops)
/// accumulated while it was open — the "measured MPIPROGINF" raw data.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) : trace_(detail::current_trace()) {
    if (trace_ != nullptr) {
      ctrs_ = detail::current_counters();
      phase_ = phase;
      if (ctrs_ != nullptr) c0_ = ctrs_->sample();
      t0_ns_ = now_ns();  // last: keep the sampling cost out of the span
    }
  }
  ~PhaseScope() {
    if (trace_ != nullptr) {
      const std::int64_t t1 = now_ns();
      trace_->record(phase_, t0_ns_, t1, bytes_,
                     ctrs_ != nullptr ? ctrs_->sample() - c0_
                                      : CounterValues{});
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Attributes message bytes to the span (e.g. halo strip sizes).
  void add_bytes(std::uint64_t b) {
    if (trace_ != nullptr) bytes_ += b;
  }

 private:
  RankTrace* trace_;
  CounterGroup* ctrs_ = nullptr;
  Phase phase_ = Phase::other;
  std::int64_t t0_ns_ = 0;
  std::uint64_t bytes_ = 0;
  CounterValues c0_{};
};

/// Drop-in stand-in for PhaseScope when tracing is compiled out.
struct NullPhaseScope {
  explicit NullPhaseScope(Phase) {}
  void add_bytes(std::uint64_t) {}
};

}  // namespace yy::obs

// Instrumentation macros.  YY_TRACE_SCOPE opens an anonymous leaf span
// for the rest of the enclosing block; YY_TRACE_SCOPE_V names the scope
// object so bytes can be attributed (`sc.add_bytes(n)`).  At
// YY_TRACE_LEVEL=0 both compile to empty objects the optimizer deletes.
#define YY_TRACE_CONCAT_INNER(a, b) a##b
#define YY_TRACE_CONCAT(a, b) YY_TRACE_CONCAT_INNER(a, b)
#if YY_TRACE_LEVEL
#define YY_TRACE_SCOPE(phase) \
  ::yy::obs::PhaseScope YY_TRACE_CONCAT(yy_trace_scope_, __LINE__)(phase)
#define YY_TRACE_SCOPE_V(var, phase) ::yy::obs::PhaseScope var(phase)
#else
#define YY_TRACE_SCOPE(phase) \
  ::yy::obs::NullPhaseScope YY_TRACE_CONCAT(yy_trace_scope_, __LINE__)(phase)
#define YY_TRACE_SCOPE_V(var, phase) ::yy::obs::NullPhaseScope var(phase)
#endif
