/// \file kernel_profile.hpp
/// Measures the real computational profile of this repository's yycore
/// implementation — the quantity the Earth Simulator's MPIPROGINF
/// hardware counter supplied in the paper.
#pragma once

#include "core/config.hpp"
#include "mhd/rhs.hpp"

namespace yy::perf {

struct KernelProfile {
  double flops_per_point_per_step = 0.0;  ///< one RK4 step, per grid point
  double seconds_per_point_per_step = 0.0;  ///< on *this* workstation
  double local_gflops = 0.0;  ///< sustained on this workstation

  /// Lane utilization of the timed step (simd backend only; width 1 and
  /// zeros otherwise) — the *measured* workstation counterpart of the
  /// ES model's Average Vector Length / Vector Operation Ratio columns
  /// (simd::LaneStats; see perf/es_model.hpp MeasuredLaneProfile).
  int simd_width = 1;
  double simd_avg_vector_length = 0.0;
  double simd_vector_coverage = 0.0;

  /// Runs one RK4 step of a small serial Yin-Yang dynamo and reads the
  /// software flop counter.  Flops per point are resolution-independent
  /// up to ghost-fraction effects, so a small grid suffices; the
  /// (nr, nt, np) arguments allow convergence checks of that claim.
  /// `backend` selects the RHS evaluation (default: the config's) — both
  /// charge identical flops, so only the seconds/gflops (and lane)
  /// figures move.
  static KernelProfile measure(
      int nr = 17, int nt_core = 13, int np_core = 37,
      mhd::RhsBackend backend = core::SimulationConfig{}.rhs_backend);
};

}  // namespace yy::perf
