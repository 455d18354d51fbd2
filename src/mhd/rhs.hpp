/// \file rhs.hpp
/// Right-hand side of the normalized MHD system, paper eqs. (2)-(5):
///
///   ∂ρ/∂t = −∇·f
///   ∂f/∂t = −∇·(vf) − ∇p + j×B + ρg + 2ρ v×Ω
///            + µ(∇²v + ⅓∇(∇·v))
///   ∂p/∂t = −v·∇p − γp∇·v + (γ−1)K∇²T + (γ−1)ηj² + (γ−1)Φ
///   ∂A/∂t = −E,           E = −v×B + ηj
///
/// The vector Laplacian is evaluated through the identity
/// ∇²v = ∇(∇·v) − ∇×(∇×v), so the viscous term becomes
/// µ(4/3 ∇(∇·v) − ∇×(∇×v)) — every differential operator is then one
/// of the scalar/vector primitives in grid/fd_ops.hpp.
///
/// Two backends evaluate the same arithmetic (DESIGN.md §11):
///  * compute_stage_simd — the production kernel: one cache-blocked
///    sweep over φ with rolling pencil rings of derived-field planes and
///    radial-innermost loops widened to W-lane packs (W = 1 is the
///    scalar sweep); the working set is O(depth·Nr·Nt).  It stores each
///    tendency straight into a Runge-Kutta stage update (StageUpdate).
///  * compute_rhs — the reference operator-at-a-time chain: one fd::*
///    pass per operator with box-sized scratch.  Simple, auditable, the
///    oracle the equivalence tests compare against; apply_stage_update
///    is its stage update.
/// Both run the same per-point expression trees (grid/fd_stencils.hpp),
/// so the results are bitwise identical (no FMA contraction).
///
/// The RHS is valid on any IndexBox whose grown(2) data is filled
/// (2 ghost layers: one consumed by the derived fields B and ∇·v, one
/// by the outer derivative of the composite second-order operators).
#pragma once

#include <cstddef>

#include "common/array3d.hpp"
#include "common/pencil.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/params.hpp"
#include "mhd/state.hpp"

namespace yy::mhd {

/// RHS evaluation strategy (see file comment); plumbed from
/// core::SimulationConfig::rhs_backend through the integrators.
enum class RhsBackend {
  reference,  ///< operator-at-a-time fd::* chain (the test oracle)
  simd,       ///< pencil sweep with radial lane packs (production)
};

constexpr const char* backend_name(RhsBackend b) {
  return b == RhsBackend::simd ? "simd" : "reference";
}

/// Preallocated temporaries for one reference-path RHS evaluation
/// (reusable across steps; allocation-free hot loop once grown, see
/// Core Guidelines Per.14).  Each member is a rebased scratch block
/// covering only the extents the evaluation over `box` actually
/// indexes — v/T on box.grown(2), the differentiated derived fields on
/// box.grown(1), operator outputs on box — instead of the historic
/// full-grid Nr×Nt×Np arrays (tests/mhd/test_workspace_footprint.cpp
/// pins the bound).
struct Workspace {
  /// Covers nothing; compute_rhs grows it on first use.
  Workspace() = default;
  /// Full-patch coverage (every box inside g.interior() works without
  /// reallocation) — what the reference integrator holds per patch.
  explicit Workspace(const SphericalGrid& g);
  /// Sized for RHS evaluation over exactly `box`.
  explicit Workspace(const IndexBox& box);

  /// Grows every member to the coverage an evaluation over `box`
  /// needs; monotone (hull with current coverage), so repeated sweeps
  /// stay allocation-free in steady state.
  void ensure(const IndexBox& box);
  bool covers(const IndexBox& box) const;
  std::size_t allocated_doubles() const;

  common::ScratchField vr, vt, vp, T;   // derived pointwise fields
  common::ScratchField br, bt, bp;      // B = ∇×A
  common::ScratchField jr, jt, jp;      // j = ∇×B
  common::ScratchField divv;            // ∇·v
  common::ScratchField cvr, cvt, cvp;   // ∇×v
  common::ScratchField t0, t1, t2;      // operator output scratch (vector)
  common::ScratchField s0, s1;          // operator output scratch (scalar)
};

/// Number of box-sized scratch arrays in Workspace (the footprint
/// regression test's accounting constant).
inline constexpr int kWorkspaceFields = 19;

/// Evaluates d(state)/dt into `rhs` over `box`; `state` must hold valid
/// data on box.grown(2).  `rhs` ghost regions are left untouched.
void compute_rhs(const SphericalGrid& g, const EquationParams& eq,
                 const Fields& state, Fields& rhs, Workspace& ws,
                 const IndexBox& box);

/// Pencil scratch of the simd backend: rolling φ-plane rings sized by
/// the stencil footprint — v and T planes are consumed by second-order
/// composites two φ layers away (depth 5, (r,θ) extent box.grown(2)),
/// the differentiated derived fields one layer (depth 3, box.grown(1)).
/// j = ∇×B needs no storage at all: it is evaluated per output point
/// from the resident B ring.  Total: 41 pencil planes versus the
/// reference path's 19 box-sized volumes.
struct PencilWorkspace {
  common::PlaneRing vr, vt, vp, T;        // depth 5
  common::PlaneRing br, bt, bp;           // depth 3, B = ∇×A
  common::PlaneRing divv, cvr, cvt, cvp;  // depth 3, ∇·v and ∇×v

  /// Grows the rings for a sweep over `box` (monotone, like
  /// Workspace::ensure).
  void ensure(const IndexBox& box);
  std::size_t allocated_doubles() const;
};

/// Pencil planes resident in a PencilWorkspace (4 rings of depth 5 +
/// 7 of depth 3); the footprint test's accounting constant.
inline constexpr int kPencilPlanes = 4 * 5 + 7 * 3;

/// One Runge-Kutta stage update, applied where a tendency v = f(src)
/// is stored.  Per point of the box and per field F:
///
///   acc.F = acc_base.F + b·v      (only when acc is set)
///   out.F = base.F + a·v          (out.F = v when base is null)
///
/// — a multiply and an add per element, each rounded (no FMA), so the
/// fused store and apply_stage_update agree bitwise.  Only the box is
/// written; the caller's ghost fill re-establishes everything else.
/// acc is written before base is read, so acc must not alias base or
/// out; the sweep reads src planes ahead of the one it stores, so out
/// and acc must not alias src either.  out may alias base and acc may
/// alias acc_base (in-place updates).
struct StageUpdate {
  Fields* out = nullptr;
  const Fields* base = nullptr;
  double a = 0.0;
  Fields* acc = nullptr;
  const Fields* acc_base = nullptr;
  double b = 0.0;

  /// out is set, and acc (if set) has a base and aliases neither
  /// out nor base.
  bool well_formed() const {
    return out != nullptr &&
           (acc == nullptr ||
            (acc_base != nullptr && acc != out && acc != base));
  }
  /// x + a·y updates per point: out unless a plain store, plus acc.
  int updates() const {
    return (base != nullptr ? 1 : 0) + (acc != nullptr ? 1 : 0);
  }
};

/// Flops one x + a·y update charges per grid point (all eight fields).
inline constexpr int kFlopsStageUpdate = 2 * Fields::kNumFields;

/// The reference backend's stage update: applies `upd` over `box` with
/// the tendency `k` (as computed by compute_rhs), in a scalar loop.
/// The oracle for compute_stage_simd's fused store; charges
/// kFlopsStageUpdate per point for each of out and acc that is updated
/// (a plain store, base null, is free).
void apply_stage_update(const Fields& k, const StageUpdate& upd,
                        const IndexBox& box);

/// The simd backend: compute_rhs followed by apply_stage_update over
/// `box`, bitwise, evaluated in one rolling-pencil sweep over φ whose
/// radial inner loops run `width`-lane packs (common/simd.hpp) plus a
/// width-1 tail for the remainder points; each tendency goes straight
/// into the update and is never stored on its own.  Per-point
/// expression trees are the shared grid/fd_stencils.hpp templates,
/// instantiated over lane packs (strictly elementwise, FMA contraction
/// pinned off) or, at width 1, over the scalar accessors — so the
/// result is bitwise identical to the reference chain for every width.
/// Charges the same flop count and additionally records lane
/// statistics (simd::lane_stats_add), the measured counterpart of the
/// ES model's vector columns.  `width` must be 1, 2, 4, or 8; `src`
/// must hold valid data on box.grown(2) and must not be upd.out or
/// upd.acc.
void compute_stage_simd_width(int width, const SphericalGrid& g,
                              const EquationParams& eq, const Fields& src,
                              const StageUpdate& upd, PencilWorkspace& pw,
                              const IndexBox& box);

/// compute_stage_simd_width at simd::active_width() — what the
/// integrator calls when RhsBackend::simd is selected.
void compute_stage_simd(const SphericalGrid& g, const EquationParams& eq,
                        const Fields& src, const StageUpdate& upd,
                        PencilWorkspace& pw, const IndexBox& box);

/// The bare tendency through the same sweep (a StageUpdate with only
/// `out` set): same contract and bitwise result as compute_rhs.
void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box);

/// Pointwise-combination flop cost per grid point (the FD operators
/// charge separately); documented for the perf model's cross-check.
inline constexpr int kFlopsPointwiseCombine = 78;

}  // namespace yy::mhd
