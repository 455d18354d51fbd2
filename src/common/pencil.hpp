/// \file pencil.hpp
/// Compact scratch containers addressed in patch indices: the memory
/// layer of the pencil RHS sweep and the box-sized reference workspaces.
///
/// Two shapes cover every scratch need of the RHS sweep:
///  * ScratchField — a box-shaped block with its origin at the box
///    corner.  Code keeps indexing at global (ir, it, ip); the field
///    subtracts its origin internally and converts implicitly to the
///    FieldView / ConstFieldView the fd operators take.  This is what
///    lets mhd::Workspace allocate grown-box extents instead of full
///    Nr×Nt×Np arrays.
///  * PlaneRing — a rolling ring of (r, θ) planes over φ, depth = the
///    stencil footprint in φ (3 or 5).  The pencil sweep computes plane
///    ip+k once, keeps it resident while the φ stencil needs it, and
///    overwrites it (ip mod depth) when the sweep moves on: the whole
///    derived-field working set shrinks from O(Nr·Nt·Np) to
///    O(depth·Nr·Nt), which is what turns the RHS from
///    bandwidth-bound whole-array passes into cache-resident fusion.
///
/// Both containers grow monotonically (`ensure`/`grow_to` reallocate
/// only when the requested cover exceeds the current one), so steady-
/// state stepping is allocation-free even when sweep boxes differ.
/// Contents are NOT preserved across a growing reallocation — these are
/// single-sweep scratch, never carried between sweeps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/array3d.hpp"
#include "common/error.hpp"
#include "common/index_box.hpp"

namespace yy::common {

/// Box-shaped scratch field addressed in patch indices (see file
/// comment).  Default-constructed it covers nothing; reset()/grow_to()
/// establish coverage.
class ScratchField {
 public:
  ScratchField() = default;
  explicit ScratchField(const IndexBox& cover) { reset(cover); }

  /// Re-covers exactly `cover` (contents undefined afterwards).
  void reset(const IndexBox& cover) {
    cover_ = cover;
    const std::size_t need = cover.volume() > 0
                                 ? static_cast<std::size_t>(cover.volume())
                                 : 0;
    data_.assign(need, 0.0);
  }

  /// Grows coverage to the hull of the current cover and `b`; no-op
  /// when already covering (steady-state stepping stays allocation-free).
  void grow_to(const IndexBox& b) {
    if (cover_.covers(b)) return;
    reset(cover_.hull(b));
  }

  bool covers(const IndexBox& b) const { return cover_.covers(b); }
  const IndexBox& cover() const { return cover_; }
  std::size_t allocated_doubles() const { return data_.size(); }

  double& operator()(int ir, int it, int ip) {
    return data_[index(ir, it, ip)];
  }
  double operator()(int ir, int it, int ip) const {
    return data_[index(ir, it, ip)];
  }

  operator FieldView() {  // NOLINT(google-explicit-constructor)
    return FieldView(data_.data(), cover_);
  }
  operator ConstFieldView() const {  // NOLINT(google-explicit-constructor)
    return ConstFieldView(data_.data(), cover_);
  }

 private:
  std::size_t index(int ir, int it, int ip) const {
    YY_ASSERT_DBG(cover_.contains(ir, it, ip));
    const std::size_t nr = static_cast<std::size_t>(cover_.r1 - cover_.r0);
    const std::size_t nt = static_cast<std::size_t>(cover_.t1 - cover_.t0);
    return static_cast<std::size_t>(ir - cover_.r0) +
           nr * (static_cast<std::size_t>(it - cover_.t0) +
                 nt * static_cast<std::size_t>(ip - cover_.p0));
  }

  IndexBox cover_{};
  std::vector<double> data_;
};

/// Rolling ring of (r, θ) planes over φ (see file comment).  Plane φ
/// indices must be non-negative (patch indices always are — ghost
/// offsets keep box.p0 ≥ 0); the ring maps ip → slot ip mod depth, so
/// at most `depth` consecutive φ planes are resident at once.
class PlaneRing {
 public:
  /// Grows the ring to at least `depth` planes covering at least
  /// [r0,r1)×[t0,t1); monotone like ScratchField::grow_to.
  void ensure(int depth, int r0, int r1, int t0, int t1) {
    YY_REQUIRE(depth >= 1 && r1 >= r0 && t1 >= t0);
    if (depth <= depth_ && r0 >= r0_ && r1 <= r0_ + nr_ && t0 >= t0_ &&
        t1 <= t0_ + nt_)
      return;
    const int nr0 = nr_ > 0 ? std::min(r0, r0_) : r0;
    const int nr1 = nr_ > 0 ? std::max(r1, r0_ + nr_) : r1;
    const int nt0 = nt_ > 0 ? std::min(t0, t0_) : t0;
    const int nt1 = nt_ > 0 ? std::max(t1, t0_ + nt_) : t1;
    depth_ = std::max(depth, depth_);
    r0_ = nr0;
    nr_ = nr1 - nr0;
    t0_ = nt0;
    nt_ = nt1 - nt0;
    data_.assign(static_cast<std::size_t>(depth_) * nr_ * nt_, 0.0);
  }

  /// The ring as seen from φ plane ip: planes ip−1, ip, ip+1 — the
  /// reach of every first-derivative stencil — with each plane's base
  /// resolved once, so a load is an offset into a known plane rather
  /// than an `ip mod depth` per access.  operator() has the Field3 call
  /// signature, for the shared per-point stencils of
  /// grid/fd_stencils.hpp; at() is the address of the same node.  The
  /// radial index is unit-stride within a plane, so W consecutive
  /// doubles from at(ir, …) are the values at ir … ir+W−1 — the
  /// load/store hook of the SIMD sweep (mhd/rhs_simd.cpp), whose caller
  /// must keep ir+W−1 inside the covered radial extent.  Valid until
  /// the ring next grows.
  struct Window {
    double* plane[3] = {};  ///< planes ip−1, ip, ip+1
    int ip = 0;
    int r0 = 0, nr = 0, t0 = 0, nt = 0;

    double* at(int ir, int it, int q) const {
      YY_ASSERT_DBG(q >= ip - 1 && q <= ip + 1);
      YY_ASSERT_DBG(ir >= r0 && ir < r0 + nr);
      YY_ASSERT_DBG(it >= t0 && it < t0 + nt);
      return plane[q - ip + 1] + (ir - r0) +
             static_cast<std::ptrdiff_t>(nr) * (it - t0);
    }
    double operator()(int ir, int it, int q) const { return *at(ir, it, q); }
  };

  /// Window centred on plane ip (ip ≥ 0; a neighbour below plane 0
  /// maps to an unrelated slot and must not be read).
  Window window(int ip) {
    YY_ASSERT_DBG(ip >= 0 && depth_ >= 3);
    return {{slot(ip - 1), slot(ip), slot(ip + 1)}, ip, r0_, nr_, t0_, nt_};
  }

  int depth() const { return depth_; }
  std::size_t allocated_doubles() const { return data_.size(); }

 private:
  double* slot(int ip) {
    const int k = ((ip % depth_) + depth_) % depth_;
    return data_.data() + static_cast<std::size_t>(k) * nr_ * nt_;
  }

  int depth_ = 0;
  int r0_ = 0, nr_ = 0;
  int t0_ = 0, nt_ = 0;
  std::vector<double> data_;
};

}  // namespace yy::common
