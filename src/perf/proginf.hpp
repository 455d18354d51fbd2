/// \file proginf.hpp
/// Renders an MPIPROGINF-style report (paper List 1) from the
/// performance model's counters.  On the Earth Simulator this output
/// came from hardware counters enabled by the MPIPROGINF environment
/// variable; here the same quantities are derived from the model plus
/// the software flop counters, formatted to match the paper's listing.
///
/// Two further reports ingest *measured* spans from the obs tracing
/// layer (src/obs): a List-1-style block whose per-rank min/max/avg
/// columns come from a real instrumented run, and a per-phase
/// predicted-vs-measured cross-check against the es_model's phase
/// split — the verification loop the paper's Table II numbers lacked
/// outside the Earth Simulator itself.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "perf/es_model.hpp"

namespace yy::perf {

struct ProgInfOptions {
  double real_time_s = 454.266;  ///< wall-clock span of the reported run
  unsigned jitter_seed = 2004;   ///< deterministic min/max rank jitter
};

/// Builds the full "MPI Program Information" text block.
std::string format_proginf(const EsPerformanceModel& model,
                           const RunConfig& rc, const ProgInfOptions& opt = {});

/// List-1-style block from *measured* spans: one row per phase with the
/// real min [rank], max [rank] and average seconds across the run's
/// ranks, plus traffic totals — no synthetic jitter.
std::string format_measured_proginf(const obs::MetricsSummary& m);

/// One row of the predicted-vs-measured phase cross-check.
struct PhaseDriftRow {
  std::string label;              ///< "compute", "halo_wait", ...
  double measured_s = 0.0;
  double measured_share = 0.0;    ///< of the traced step time
  double predicted_share = -1.0;  ///< < 0: phase outside the model
  double pred_over_meas = 0.0;    ///< predicted/measured share (0 = n/a)
};

/// Numeric form of the phase cross-check: measured phase shares of a
/// real run against the es_model's predicted split at the same process
/// count.  format_phase_report renders these rows.
std::vector<PhaseDriftRow> phase_drift(const obs::MetricsSummary& m,
                                       const EsPerformanceModel& model,
                                       const RunConfig& rc);

/// Per-phase cross-check of a measured run against the model's
/// predicted step split.  Each comparable phase reports measured
/// seconds, measured share, predicted share, and the predicted/measured
/// ratio; phases outside the model (reduce, io) report measured only.
std::string format_phase_report(const obs::MetricsSummary& m,
                                const EsPerformanceModel& model,
                                const RunConfig& rc);

/// Vector-column cross-check: the ES model's predicted Average Vector
/// Length / Vector Operation Ratio (256-wide pipelines, List 1's rows)
/// against the *measured* lane utilization of the SIMD backend on this
/// workstation (MeasuredLaneProfile).  Absolute lengths differ by the
/// hardware width; the normalized columns (length/width, coverage) are
/// directly comparable.
std::string format_lane_report(const EsPerformanceModel& model,
                               const RunConfig& rc,
                               const MeasuredLaneProfile& measured);

}  // namespace yy::perf
