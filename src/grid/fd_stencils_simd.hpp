/// \file fd_stencils_simd.hpp
/// Accessors that let the shared per-point stencils of fd_stencils.hpp
/// run on W radial points at once, W = 1 included.
///
/// The stencils are templated on a metric provider and on field
/// accessors; instantiating them with the types below turns every
/// `a(ir, it, ip)` into a load of W consecutive doubles (the radial
/// index is unit-stride in Field3 and PlaneRing alike) and, for W > 1,
/// every arithmetic node into an elementwise simd::Pack op.  At W = 1
/// the load is a plain double, so the scalar sweep is straight double
/// arithmetic with no pack wrapper in between.  The expression trees —
/// and therefore, with -ffp-contract=off, the per-lane IEEE results —
/// are literally the ones the scalar sweep evaluates: same header, same
/// source lines, wider loop.
///
/// Addressing: every patch array of one sweep has the same shape, so a
/// field is one raw base pointer plus the two strides the arrays share
/// (Strides: θ stride Nr, φ stride Nr·Nt).  The sweep computes a flat
/// offset from (ir, it, ip) with the same arithmetic for every field,
/// so the compiler forms it once per point instead of once per load.
///
/// Metric factors: 1/r is the only lane-varying one (W table entries
/// per load); the θ factors are constant along a radial line, so the
/// provider binds them once per θ row and they broadcast inside the
/// shared expression trees, exactly as the scalar code hoists them.
///
/// Callers must keep ir+W−1 inside the extent a scalar sweep of the
/// same loop would touch; the loads then stay inside the same
/// allocations the scalar stencil reads.  With YY_DEBUG_CHECKS every
/// access checks that per dimension, as Array3D::index does.
#pragma once

#include <cstddef>

#include "common/array3d.hpp"
#include "common/error.hpp"
#include "common/pencil.hpp"
#include "common/simd.hpp"
#include "grid/spherical_grid.hpp"

namespace yy::fd {

/// W consecutive doubles from p: a double at W = 1, a pack above.
template <int W>
inline auto lanes(const double* p) {
  if constexpr (W == 1)
    return *p;
  else
    return simd::Pack<W>::load(p);
}

/// The shape shared by every array of one sweep, as flat-offset
/// strides (radial index unit stride).
struct Strides {
  std::ptrdiff_t t = 0, p = 0;  ///< Nr, Nr·Nt
  int nr = 0, nt = 0, np = 0;

  Strides() = default;
  explicit Strides(const Array3D<double>& a)
      : t(a.nr()),
        p(static_cast<std::ptrdiff_t>(a.nr()) * a.nt()),
        nr(a.nr()),
        nt(a.nt()),
        np(a.np()) {}

  /// Flat offset of (ir, it, ip), whose W lanes ir…ir+W−1 must lie in
  /// the array.
  template <int W>
  std::ptrdiff_t at(int ir, int it, int ip) const {
    YY_ASSERT_DBG(ir >= 0 && ir + W <= nr);
    YY_ASSERT_DBG(it >= 0 && it < nt);
    YY_ASSERT_DBG(ip >= 0 && ip < np);
    return ir + t * it + p * ip;
  }
};

/// Row-bound metric provider for the W-lane stencil instantiation:
/// inv_r loads W consecutive 1/r table entries; the θ metrics of the
/// bound row are read once, at construction, and stay scalar.
template <int W>
struct LaneMetrics {
  const double* inv_r_tab;
  double cot, inv_sin;
  int nr, row;

  LaneMetrics(const SphericalGrid& g, int it)
      : inv_r_tab(g.inv_r_data()),
        cot(g.cot_t(it)),
        inv_sin(g.inv_sin_t(it)),
        nr(g.Nr()),
        row(it) {}

  auto inv_r(int ir) const {
    YY_ASSERT_DBG(ir >= 0 && ir + W <= nr);
    return lanes<W>(inv_r_tab + ir);
  }
  double cot_t([[maybe_unused]] int it) const {
    YY_ASSERT_DBG(it == row);
    return cot;
  }
  double inv_sin_t([[maybe_unused]] int it) const {
    YY_ASSERT_DBG(it == row);
    return inv_sin;
  }
};

/// W-lane strided accessor over a patch array: raw base plus the
/// sweep's shared strides.
template <int W>
struct FieldLanes {
  const double* base;
  const Strides& s;
  auto operator()(int ir, int it, int ip) const {
    return lanes<W>(base + s.at<W>(ir, it, ip));
  }
};

/// W-lane accessor over a PlaneRing window (the pencil sweep's rolling
/// scratch, resolved at one φ plane); radial index is unit-stride within
/// each resident plane.
template <int W>
struct RingLanes {
  const common::PlaneRing::Window& w;
  auto operator()(int ir, int it, int ip) const {
    YY_ASSERT_DBG(ir + W <= w.r0 + w.nr);
    return lanes<W>(w.at(ir, it, ip));
  }
};

}  // namespace yy::fd
