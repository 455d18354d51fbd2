/// \file fd_stencils_simd.hpp
/// Lane adapters that let the shared per-point stencils of
/// fd_stencils.hpp run on W radial points at once.
///
/// The stencils are templated on a metric provider and on field
/// accessors; instantiating them with the types below turns every
/// `a(ir, it, ip)` into a load of W consecutive doubles (the radial
/// index is unit-stride in Field3, ScratchField, and PlaneRing alike)
/// and every arithmetic node into an elementwise simd::Pack op.  The
/// expression trees — and therefore, with -ffp-contract=off, the
/// per-lane IEEE results — are literally the ones the scalar sweep
/// evaluates: same header, same source lines, wider loop.
///
/// Metric factors: 1/r is the only lane-varying one (packs load W
/// table entries); every θ/φ factor is constant across a radial lane
/// and broadcasts, exactly as the scalar code hoists it.
///
/// Callers must keep ir+W−1 inside the extent a scalar sweep of the
/// same loop would touch; the pack loads then stay inside the same
/// allocations the scalar stencil reads.
#pragma once

#include "common/array3d.hpp"
#include "common/pencil.hpp"
#include "common/simd.hpp"
#include "grid/spherical_grid.hpp"

namespace yy::fd {

/// Metric provider for W-lane stencil instantiation: inv_r returns a
/// pack of W consecutive 1/r table entries; θ metrics stay scalar and
/// broadcast inside the shared expression trees.
template <int W>
struct LaneMetrics {
  const SphericalGrid* g = nullptr;
  simd::Pack<W> inv_r(int ir) const {
    return simd::Pack<W>::load(g->inv_r_data() + ir);
  }
  double cot_t(int it) const { return g->cot_t(it); }
  double inv_sin_t(int it) const { return g->inv_sin_t(it); }
};

/// W-lane accessor over a Field3 (or any Array3D<double>).
template <int W>
struct FieldLanes {
  const Array3D<double>* f = nullptr;
  simd::Pack<W> operator()(int ir, int it, int ip) const {
    return simd::Pack<W>::load(f->data() + f->index(ir, it, ip));
  }
};

/// W-lane accessor over a PlaneRing window (the pencil sweep's rolling
/// scratch, resolved at one φ plane); radial index is unit-stride within
/// each resident plane.
template <int W>
struct RingLanes {
  const common::PlaneRing::Window* w = nullptr;
  simd::Pack<W> operator()(int ir, int it, int ip) const {
    return simd::Pack<W>::load(w->at(ir, it, ip));
  }
};

}  // namespace yy::fd
