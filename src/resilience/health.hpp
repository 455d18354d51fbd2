/// \file health.hpp
/// Solver health monitoring: periodic NaN/Inf, blow-up and unphysical-
/// state scans with a collective verdict.
///
/// The scan is local (every rank sweeps its own eight full arrays) and
/// the verdict is made collective with a single allreduce-max over a
/// severity code, so all ranks agree on the outcome and can react in
/// lockstep — the property the ResilientRunner's rewind protocol
/// depends on.  Verdicts are reported through the obs event counters
/// and thus show up in yy_metrics output.
#pragma once

#include "core/distributed_solver.hpp"

namespace yy::resilience {

struct HealthPolicy {
  int check_interval = 5;          ///< scan every N steps (>= 1)
  double blowup_threshold = 1e6;   ///< max |field| before "blow-up"
  double min_dt = 0.0;             ///< dt below this = CFL collapse (0 = off)
  /// A field whose nonzero-denormal share exceeds this fraction is a
  /// flood: physically meaningless magnitudes that also fall off any
  /// hardware fast path.  <= 0 disables the probe.
  double denormal_flood_fraction = 0.05;
  /// Deadline for the verdict collective's internal receives (ms).  A
  /// dead or hung peer then surfaces as a comm timeout on every rank
  /// instead of wedging the health sweep forever (<= 0 = fabric
  /// default).  The ResilientRunner propagates its take deadline here.
  int verdict_deadline_ms = 0;
};

enum class HealthVerdict {
  healthy,
  cfl_collapse,    ///< timestep fell below policy.min_dt
  denormal_flood,  ///< a field drowned in subnormal magnitudes
  unphysical,      ///< ρ <= 0 or p <= 0 somewhere in the interior
  blowup,          ///< finite but beyond policy.blowup_threshold
  nonfinite,       ///< NaN or ±Inf somewhere in the state
};

const char* verdict_name(HealthVerdict v);

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthPolicy policy);

  /// True when `step` is a scan step under the policy interval.
  bool due(long long step) const;

  /// Collective over the solver's world: local scan + allreduce-max of
  /// the severity code.  `dt` is the timestep about to be used (checked
  /// against policy.min_dt).  Every rank returns the same verdict.
  HealthVerdict check(const core::DistributedSolver& s, double dt) const;

 private:
  HealthPolicy policy_;
};

}  // namespace yy::resilience
