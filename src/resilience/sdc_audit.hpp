/// \file sdc_audit.hpp
/// Silent-data-corruption (SDC) auditing of resident field state.
///
/// The checkpoint and envelope layers CRC-protect state *in flight*;
/// between those moments the multi-megabyte in-memory `Fields` patch on
/// each rank is unguarded — one flipped mantissa bit is far below the
/// HealthMonitor's blow-up threshold yet propagates through every
/// subsequent RK4 stage and silently invalidates the run.  The auditor
/// closes that gap with two independent detectors:
///
///  * Sectioned checksums: each field of the patch is split into
///    `slabs_per_field` contiguous slabs and CRC32'd.  References are
///    refreshed on the audit cadence, immediately after the step the
///    next audit will examine (the state is only legal *at rest*,
///    between steps); any divergence means the bytes changed while no
///    step ran — corruption by definition, with slab granularity for
///    localization.  Refreshing more often would add no detection:
///    corruption on a non-audit step bakes into the next reference
///    regardless, and is the probes' job to catch.
///  * Physics invariant probes: an energy-budget rate bound (the total
///    energy of a quasi-steady dynamo cannot jump by orders of
///    magnitude per step) and a max|∇·B| drift bound.  B = ∇×A is
///    divergence-free by construction, so the divB probe guards the
///    derived-field pipeline (curl/div stencils, metric tables) rather
///    than A itself; the energy-rate bound is the detector for
///    corruption that perturbs the state magnitude.  Probes are the
///    backstop for corruption windows the checksums cannot see (e.g. a
///    flip between refresh and the corrupted step being accepted).
///
/// Local evidence from both detectors is folded into one severity code
/// and combined across ranks with an allreduce-max, so every rank
/// returns the same collective verdict — the trigger for the SDC row
/// of the ResilientRunner's recovery ladder.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/array3d.hpp"
#include "core/distributed_solver.hpp"

namespace yy::resilience {

struct SdcPolicy {
  /// Verify cadence in accepted steps; 0 disables auditing entirely.
  int audit_interval = 0;
  /// CRC sections per field (>= 1); more slabs localize better.
  int slabs_per_field = 4;
  /// Slab-checksum verification on/off (probes still run when off).
  bool checksums = true;
  /// Energy-rate bound: trip when |ΔE| / (max(|E_ref|, eps) · Δsteps)
  /// exceeds this between audits.  0 disables the probe.
  double max_energy_rate = 0.0;
  /// Trip when max|∇·B| drifts more than this above the value measured
  /// at the first audit (the discretization floor).  0 disables.
  double max_divb_drift = 0.0;
  /// Deadline for the verdict collective (0 = wait forever).
  int verdict_deadline_ms = 0;
};

enum class SdcVerdict : int {
  clean = 0,
  invariant_breach,   ///< a physics probe left its bound
  checksum_mismatch,  ///< resident bytes changed between steps
};

const char* sdc_verdict_name(SdcVerdict v);

class SdcAuditor {
 public:
  explicit SdcAuditor(SdcPolicy policy);

  bool enabled() const { return policy_.audit_interval > 0; }
  bool due(long long step) const {
    return enabled() && step > 0 && step % policy_.audit_interval == 0;
  }
  /// True once refresh() has recorded reference checksums.
  bool armed() const { return armed_; }

  /// Records reference slab CRCs over the current (at-rest) state.
  /// Called after steps the next audit will examine (the audit
  /// cadence), and after any restore that changes the trajectory.
  void refresh(const core::DistributedSolver& s);

  /// Collective: verifies the state against the references and probes,
  /// then agrees on a verdict via allreduce-max.  Every rank returns
  /// the same verdict.
  SdcVerdict audit(core::DistributedSolver& s);

  /// True when the last audit found local checksum evidence on *this*
  /// rank (localization for diagnostics; the recovery itself is
  /// collective).
  bool suspect_local() const { return suspect_local_; }

  /// Drops references and probe baselines.  Must be called after any
  /// restore/rewind/shrink: the state jumped to a different point of
  /// the trajectory (and possibly a different patch shape), so stale
  /// references would be false evidence.
  void disarm();

 private:
  std::vector<std::uint32_t> slab_crcs(const mhd::Fields& s) const;
  double max_divb(const core::DistributedSolver& s);

  SdcPolicy policy_;
  std::vector<std::uint32_t> ref_;
  bool armed_ = false;
  bool suspect_local_ = false;

  // Probe baselines, armed at the first audit after (re)start.
  bool probes_armed_ = false;
  double ref_energy_ = 0.0;
  long long ref_energy_step_ = 0;
  double ref_divb_ = 0.0;

  // Scratch for the divB probe (B = ∇×A, then ∇·B), sized lazily to
  // the local patch and reused across audits.
  Field3 br_, bt_, bp_, divb_;
};

}  // namespace yy::resilience
