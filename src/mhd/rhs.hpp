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
///  * compute_rhs_simd — the production kernel: one cache-blocked sweep
///    over φ with rolling pencil rings of derived-field planes and
///    radial-innermost loops widened to W-lane packs (W = 1 is the
///    scalar sweep); the working set is O(depth·Nr·Nt).
///  * compute_rhs — the reference operator-at-a-time chain: one fd::*
///    pass per operator with box-sized scratch.  Simple, auditable, the
///    oracle the equivalence tests compare against.
/// Both run the same per-point expression trees (grid/fd_stencils.hpp),
/// so the results are bitwise identical (no FMA contraction).
///
/// The RHS is valid on any IndexBox whose grown(2) data is filled
/// (2 ghost layers: one consumed by the derived fields B and ∇·v, one
/// by the outer derivative of the composite second-order operators).
#pragma once

#include <cstddef>
#include <vector>

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
/// full-grid Nr×Nt×Np arrays (the ~19×YY_THREADS memory multiplier;
/// tests/mhd/test_workspace_footprint.cpp pins the bound).
struct Workspace {
  /// Covers nothing; compute_rhs grows it on first use.
  Workspace() = default;
  /// Full-patch coverage (every box inside g.interior() works without
  /// reallocation) — what long-lived solver workspaces use.
  explicit Workspace(const SphericalGrid& g);
  /// Sized for RHS evaluation over exactly `box`.
  explicit Workspace(const IndexBox& box);

  /// Grows every member to the coverage an evaluation over `box`
  /// needs; monotone (hull with current coverage), so alternating
  /// interior/rim sweeps stay allocation-free in steady state.
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

/// Interior/boundary-shell decomposition of an RHS sweep for the
/// overlapped stepping mode.  `interior` is `box` shrunk by the rim
/// width in θ and φ only (never radially — radial ghosts are filled by
/// the purely local wall reflection, so the interior sweep needs no
/// exchanged data); `rim` is the leftover horizontal shell as at most
/// four disjoint boxes.  Every point of `box` lands in exactly one
/// piece.  On patches too small to hold an interior (extent ≤ 2·rim in
/// a decomposed direction) the interior is empty and the rim covers
/// the whole box.
struct RhsSplit {
  IndexBox interior{};             ///< may have zero volume
  std::vector<IndexBox> rim;       ///< ≤ 4 boxes, all non-empty, disjoint

  bool interior_empty() const { return interior.volume() == 0; }
};

/// Splits `box` for a stencil-width `rim` (≥ 0; the solver passes the
/// grid's ghost width).  Pure index arithmetic, no grid required.
RhsSplit split_rhs_box(const IndexBox& box, int rim);

/// The k-th of n contiguous φ-slabs of `box` (the first np mod n slabs
/// take one extra plane).  Shared by both parallel backends so the
/// partition — and therefore the bitwise result — cannot diverge.
IndexBox phi_slab(const IndexBox& box, int n, int k);

/// compute_rhs over `box` decomposed into `nthreads` contiguous φ-slabs
/// evaluated concurrently (common/microtask.hpp), one workspace per
/// slab — `ws_pool` is grown to `nthreads` entries on first use, each
/// sized to its slab (not the full grid).  Every slab is an independent
/// compute_rhs call, so the result is bitwise identical to the
/// monolithic sweep for any thread count (the RHS is a pointwise
/// function of the state's stencil neighbourhood; no cross-point
/// reductions).  nthreads ≤ 1 is exactly compute_rhs.
void compute_rhs_parallel(const SphericalGrid& g, const EquationParams& eq,
                          const Fields& state, Fields& rhs,
                          std::vector<Workspace>& ws_pool, const IndexBox& box,
                          int nthreads);

/// The simd backend: same contract and bitwise-identical result as
/// compute_rhs (see file comment), evaluated in one rolling-pencil
/// sweep over φ whose radial inner loops run `width`-lane packs
/// (common/simd.hpp) plus a width-1 tail for the remainder points.
/// Per-point expression trees are the shared grid/fd_stencils.hpp
/// templates, instantiated over lane packs (strictly elementwise, FMA
/// contraction pinned off) or, at width 1, over the scalar accessors —
/// so the result is bitwise identical to the reference chain for every
/// width.  Charges the same flop count and additionally records lane
/// statistics (simd::lane_stats_add), the measured counterpart of the
/// ES model's vector columns.  `width` must be 1, 2, 4, or 8.
void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box);

/// compute_rhs_simd_width at simd::active_width() — what the
/// integrators call when RhsBackend::simd is selected.
void compute_rhs_simd(const SphericalGrid& g, const EquationParams& eq,
                      const Fields& state, Fields& rhs, PencilWorkspace& pw,
                      const IndexBox& box);

/// The simd analogue of compute_rhs_parallel: identical φ-slab
/// partition (phi_slab), one PencilWorkspace per slab, bitwise
/// identical to the monolithic sweep for any thread count and width.
void compute_rhs_parallel_simd_width(int width, const SphericalGrid& g,
                                     const EquationParams& eq,
                                     const Fields& state, Fields& rhs,
                                     std::vector<PencilWorkspace>& pw_pool,
                                     const IndexBox& box, int nthreads);

/// compute_rhs_parallel_simd_width at simd::active_width().
void compute_rhs_parallel_simd(const SphericalGrid& g,
                               const EquationParams& eq, const Fields& state,
                               Fields& rhs,
                               std::vector<PencilWorkspace>& pw_pool,
                               const IndexBox& box, int nthreads);

/// Pointwise-combination flop cost per grid point (the FD operators
/// charge separately); documented for the perf model's cross-check.
inline constexpr int kFlopsPointwiseCombine = 78;

}  // namespace yy::mhd
