/// \file simd.hpp
/// Portable fixed-width lane abstraction for the SIMD RHS backend.
///
/// Pack<W> wraps a GCC/Clang vector of W doubles (W = 1, 2, 4, 8) with
/// elementwise +, −, ×, ÷ and unaligned load/store.  Every operator is
/// strictly elementwise IEEE-754 double arithmetic: lane i of a ⊙ b is
/// bitwise-identical to the scalar expression a[i] ⊙ b[i].  Combined
/// with the global `-ffp-contract=off` (top-level CMakeLists) this is
/// what makes the SIMD sweep in mhd/rhs_simd.cpp bitwise-equal at every
/// width to its scalar (W = 1) instantiation: same expression tree, no
/// reassociation, no FMA contraction — only the loop is wider.
///
/// Width policy (all implemented in simd.cpp, the one TU compiled with
/// the native ISA flags so the __AVX512F__/__AVX2__/__SSE2__ macros are
/// meaningful there):
///  * compiled_max_width() — widest pack the build supports (1 when the
///    CMake option -DYY_SIMD=OFF defined YY_SIMD_DISABLED).
///  * active_width() — compiled max, overridable once per process by
///    the YY_SIMD environment variable ("scalar" or 1/2/4/8, clamped
///    to the compiled max).  Stamped into RunManifest by the drivers.
///  * force_active_width(w) — test hook to sweep widths in-process.
///
/// Lane statistics are the measured counterpart of the modeled Earth
/// Simulator vector columns (perf/es_model): the SIMD sweep charges,
/// analytically per call, how many loop iterations it issued and how
/// many points rode in full-width packs vs scalar remainder tails.
#pragma once

#include <cstdint>

namespace yy::simd {

/// W contiguous doubles with elementwise arithmetic (see file comment).
template <int W>
struct Pack {
  static_assert(W == 1 || W == 2 || W == 4 || W == 8,
                "supported lane widths: 1, 2, 4, 8");
  typedef double V __attribute__((vector_size(W * 8)));
  V v;

  static constexpr int width = W;

  Pack() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): broadcast, so that the
  // mixed scalar⊙pack expressions in the stencils read like the scalar
  // originals (`2.0 * ri * vrc` etc.).
  Pack(double s) {
    // Copy through a stack array: GCC rejects subscripting a vector
    // whose width is a dependent expression at template-parse time,
    // and W == 1 lowers V to plain double anyway.  The copies fold to
    // a broadcast at -O2.
    double tmp[W];
    for (int i = 0; i < W; ++i) tmp[i] = s;
    __builtin_memcpy(&v, tmp, sizeof(v));
  }

  static Pack wrap(V x) {
    Pack r;
    r.v = x;
    return r;
  }

  /// Unaligned load of W consecutive doubles.
  static Pack load(const double* p) {
    Pack r;
    __builtin_memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  /// Unaligned store of W consecutive doubles.
  void store(double* p) const { __builtin_memcpy(p, &v, sizeof(v)); }

  double lane(int i) const {
    double tmp[W];
    __builtin_memcpy(tmp, &v, sizeof(v));
    return tmp[i];
  }

  friend Pack operator+(Pack a, Pack b) { return wrap(a.v + b.v); }
  friend Pack operator-(Pack a, Pack b) { return wrap(a.v - b.v); }
  friend Pack operator*(Pack a, Pack b) { return wrap(a.v * b.v); }
  friend Pack operator/(Pack a, Pack b) { return wrap(a.v / b.v); }
  Pack operator-() const { return wrap(-v); }
  Pack& operator+=(Pack o) {
    v += o.v;
    return *this;
  }
  Pack& operator-=(Pack o) {
    v -= o.v;
    return *this;
  }
};

/// Widest pack this build's SIMD TUs were compiled for: 8 (AVX-512),
/// 4 (AVX2), 2 (SSE2 / x86-64 baseline), or 1 (-DYY_SIMD=OFF or an
/// ISA without double lanes).
int compiled_max_width();

/// Short name of the ISA behind compiled_max_width(): "avx512",
/// "avx2", "sse2", "scalar", or "off" (-DYY_SIMD=OFF).
const char* compiled_isa();

/// Parses a YY_SIMD override value: "scalar" → 1, "1"/"2"/"4"/"8" →
/// that width clamped down to `max_width`; null/empty/unrecognized →
/// `max_width`.  Exposed separately so tests can cover the parse
/// without mutating the process environment.
int parse_width_override(const char* value, int max_width);

/// The lane width compute_stage_simd dispatches to: a test-forced width
/// if set, else the YY_SIMD environment override (read once, cached),
/// else compiled_max_width().
int active_width();

/// Test hook: force active_width() to `w` (1/2/4/8); 0 restores the
/// environment/default policy.  Not for production use.
void force_active_width(int w);

/// Per-sweep lane accounting, counted from the trips the sweep's radial
/// loops ran (the measured counterpart of the ES model's
/// average-vector-length / vector-op-ratio columns).
struct LaneStats {
  std::uint64_t iterations = 0;     ///< pack-loop trips + scalar tail trips
  std::uint64_t vector_points = 0;  ///< points processed in full-width packs
  std::uint64_t points = 0;         ///< total points swept

  /// Mean points retired per inner-loop trip (ES "average vector
  /// length" analogue; equals the width when every line divides evenly).
  double avg_vector_length() const {
    return iterations > 0 ? static_cast<double>(points) /
                                static_cast<double>(iterations)
                          : 0.0;
  }
  /// Fraction of points that rode in full-width packs (ES "vector
  /// operation ratio" analogue; 0 for the scalar fallback).
  double vector_coverage() const {
    return points > 0 ? static_cast<double>(vector_points) /
                            static_cast<double>(points)
                      : 0.0;
  }
};

/// Adds one sweep's counts to the global aggregate.  Thread-safe.
void lane_stats_add(const LaneStats& s);

/// Global aggregate since the last reset.  Thread-safe.
LaneStats lane_stats_total();

/// Resets the global aggregate.
void lane_stats_reset();

}  // namespace yy::simd
