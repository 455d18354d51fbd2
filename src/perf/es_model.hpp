/// \file es_model.hpp
/// Analytic performance model of the yycore code on the Earth
/// Simulator, driven by *measured* properties of this repository's
/// implementation (flops per grid point per step from the instrumented
/// kernels, message volumes from the actual decomposition) plus the
/// machine constants of Table I.  It regenerates the shape of the
/// paper's Table II: total Tflops grows with processor count while
/// parallel efficiency falls; at equal processor count the 511-radial
/// grid outperforms the 255-radial grid (longer vector loops amortize
/// pipeline startup better); the flat-MPI communication share stays
/// near the paper's ~10%.
///
/// Cost constants that cannot be measured on a workstation (memory
/// sustain fraction, pipeline startup, effective per-process network
/// bandwidth) are calibration parameters with documented values chosen
/// to reproduce the paper's 15.2 Tflops / 46% flagship point; the
/// *trends* across configurations then follow from the model structure,
/// not from per-row fitting.
#pragma once

#include "perf/es_spec.hpp"

namespace yy::perf {

/// Calibration constants (see header comment).  The defaults are
/// calibrated once against the paper's flagship 4096-processor point;
/// all six Table II rows then follow from the model structure.
struct EsCostParams {
  double mem_sustain_frac = 0.777;  ///< fraction of peak sustainable by
                                    ///< the stencil code's byte/flop mix
  double loop_startup_cycles = 55.0; ///< per radial vector-loop nest
  double chunk_startup_cycles = 12.0;///< per 256-element strip-mine slice
  double scalar_gflops = 0.7;       ///< non-vectorized op throughput
  double eff_bandwidth_gbs = 2.0;   ///< effective per-process bandwidth
  double msg_latency_s = 1.2e-5;    ///< per point-to-point message
  /// Bulk-synchronous straggler/OS-jitter cost per ghost fill: every
  /// fill ends in a synchronization whose expected tail grows with the
  /// number of participating processes.
  double straggler_s_per_proc = 1.5e-6;
  double scalar_overhead_per_line = 2.4;  ///< scalar ops per radial line,
                                          ///< sets the vector-op ratio
  /// Intra-node microtasking efficiency of the hybrid style (8 APs
  /// sharing one process: fork/join overhead, load imbalance).
  double microtask_efficiency = 0.94;
};

/// Parallelization style (paper §IV, citing Nakajima's flat-MPI vs
/// hybrid comparison): flat MPI runs one process per AP; the hybrid
/// style runs one MPI process per node, microtasked over its 8 APs.
enum class Parallelization {
  flat_mpi,
  hybrid_microtask,
};

/// One run configuration = one row of Table II.
struct RunConfig {
  int processors = 0;  ///< APs used (flat MPI: also the process count)
  int nr = 0, nt = 0, np = 0;  ///< per-panel grid (× 2 panels total)
  Parallelization parallelization = Parallelization::flat_mpi;
};

struct ModelResult {
  double tflops = 0.0;
  double efficiency = 0.0;       ///< of the used processors' peak
  double comm_fraction = 0.0;    ///< communication share of a step
  /// Predicted phase split of one step (fractions sum to 1): compute
  /// (rhs + stage updates), intra-panel halo exchange, inter-panel
  /// overset exchange.  These are what obs-measured runs cross-check
  /// (see perf/proginf.hpp format_phase_report).
  double comp_fraction = 0.0;
  double halo_fraction = 0.0;
  double overset_fraction = 0.0;
  double avg_vector_length = 0.0;
  double vec_op_ratio = 0.0;
  double time_per_step_s = 0.0;
  double flops_per_step = 0.0;   ///< whole machine, one RK4 step
  double flops_per_gridpoint_rate = 0.0;  ///< "Flops/g.p." of Table III
  long long grid_points = 0;
  int pt = 0, pp = 0;            ///< per-panel process grid
  int ntl = 0, npl = 0;          ///< per-process patch (max)
  double memory_per_process_mb = 0.0;  ///< arrays resident per process
  bool fits_node_memory = true;  ///< 8 processes/node vs 16 GB (Table I)
};

/// Measured lane utilization of the SIMD RHS backend on *this*
/// workstation (simd::LaneStats reduced over a timed step, see
/// KernelProfile) — the measured counterpart of ModelResult's
/// avg_vector_length / vec_op_ratio columns.  The ES pipelines 256-wide
/// vector registers where the workstation packs 2–8 doubles, so the
/// absolute lengths differ by construction; what transfers is the
/// *structure*: both are set by the radial loop extent against the
/// hardware lane width, and both degrade the same way when lines leave
/// remainder tails (perf/proginf.hpp format_lane_report renders the
/// comparison).
struct MeasuredLaneProfile {
  int width = 1;                  ///< active lane width of the timed run
  double avg_vector_length = 0.0; ///< points per inner-loop trip
  double vector_coverage = 0.0;   ///< share of points in full-width packs
};

class EsPerformanceModel {
 public:
  /// `flops_per_point_per_step` should come from
  /// KernelProfile::measure() — the real instrumented count.
  EsPerformanceModel(const EarthSimulatorSpec& spec, const EsCostParams& cost,
                     double flops_per_point_per_step)
      : spec_(spec), cost_(cost), flops_per_point_(flops_per_point_per_step) {}

  const EarthSimulatorSpec& spec() const { return spec_; }
  const EsCostParams& cost() const { return cost_; }
  double flops_per_point() const { return flops_per_point_; }

  ModelResult predict(const RunConfig& rc) const;

 private:
  EarthSimulatorSpec spec_;
  EsCostParams cost_;
  double flops_per_point_;
};

/// The paper's six Table II configurations, in the paper's row order.
inline constexpr RunConfig kTable2Configs[] = {
    {4096, 511, 514, 1538}, {3888, 511, 514, 1538}, {3888, 255, 514, 1538},
    {2560, 511, 514, 1538}, {2560, 255, 514, 1538}, {1200, 255, 514, 1538},
};

/// The paper's reported (Tflops, efficiency) per row, for comparison.
struct Table2Reported {
  double tflops;
  double efficiency;
};
inline constexpr Table2Reported kTable2Reported[] = {
    {15.2, 0.46}, {13.8, 0.44}, {12.1, 0.39},
    {10.3, 0.50}, {9.17, 0.45}, {5.40, 0.56},
};

}  // namespace yy::perf
