/// \file rhs_simd.cpp
/// The production RHS kernel: one rolling-pencil sweep over φ evaluating
/// all eight tendencies per point, with its radial inner loops widened
/// to W-lane packs (common/simd.hpp) plus a width-1 remainder tail.
/// Bitwise identical to the reference operator-at-a-time chain in
/// rhs.cpp (see DESIGN.md §11).
///
/// Sweep structure — for each output plane ip the stencils need
///  * v and T two φ layers out (second-order composites differentiate
///    first-derivative fields, which themselves read ±1): depth-5 rings
///    over (r,θ) ∈ box.grown(2);
///  * the once-differentiated fields B, ∇·v, ∇×v one layer out:
///    depth-3 rings over box.grown(1);
///  * j = ∇×B only at the output point itself — evaluated on the fly
///    from the resident B ring, never stored.
/// So the steady-state loop is: fill v/T plane ip+2, fill derived plane
/// ip+1, combine plane ip — each plane computed exactly once, exactly as
/// many point-evaluations as the reference path performs over the same
/// boxes (the flop charge below is the same sum, term for term).
///
/// Bitwise contract: every per-point body below is a grid/fd_stencils.hpp
/// template.  W > 1 instantiates it over lane adapters (FieldLanes /
/// RingLanes / LaneMetrics); W = 1 — the remainder tails, -DYY_SIMD=OFF
/// builds and YY_SIMD=scalar — over the plain scalar accessors (Field3 /
/// PlaneRing::Window / SphericalGrid).  The source expressions never
/// change.  Pack arithmetic is strictly elementwise and the build pins
/// -ffp-contract=off, so lane i of any pack equals the scalar evaluation
/// at ir+i bit for bit.  The equivalence suite (tests/mhd/
/// test_rhs_simd.cpp) pins this against compute_rhs for every width,
/// split, and thread count.
///
/// This TU is compiled with the native ISA flags (see src/mhd/
/// CMakeLists.txt) so the packs lower to real vector instructions; the
/// rest of the tree keeps the portable baseline flags.
#include <algorithm>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/microtask.hpp"
#include "common/simd.hpp"
#include "grid/fd_ops.hpp"
#include "grid/fd_stencils.hpp"
#include "grid/fd_stencils_simd.hpp"
#include "mhd/derived.hpp"
#include "mhd/rhs.hpp"

namespace yy::mhd {

void PencilWorkspace::ensure(const IndexBox& box) {
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  for (common::PlaneRing* r : {&vr, &vt, &vp, &T})
    r->ensure(5, e2.r0, e2.r1, e2.t0, e2.t1);
  for (common::PlaneRing* r : {&br, &bt, &bp, &divv, &cvr, &cvt, &cvp})
    r->ensure(3, e1.r0, e1.r1, e1.t0, e1.t1);
}

std::size_t PencilWorkspace::allocated_doubles() const {
  std::size_t n = 0;
  for (const common::PlaneRing* r :
       {&vr, &vt, &vp, &T, &br, &bt, &bp, &divv, &cvr, &cvt, &cvp})
    n += r->allocated_doubles();
  return n;
}

namespace {

/// Everything a sweep needs, bundled so the per-point templates take
/// one argument.
struct SweepCtx {
  const SphericalGrid& g;
  const EquationParams& eq;
  const Fields& state;
  Fields& rhs;
  PencilWorkspace& pw;
  IndexBox box, e2, e1;
  double c_r, c_t, c_p, irr, itt, ipp;
  double c43, gm1, cstr;
};

/// Every ring of the workspace resolved at one φ plane
/// (common::PlaneRing::Window): the sweep builds one per plane, so the
/// per-point loads never reduce a plane index modulo the ring depth.
struct Planes {
  using Window = common::PlaneRing::Window;
  Window vr, vt, vp, T, br, bt, bp, divv, cvr, cvt, cvp;

  Planes(PencilWorkspace& pw, int ip)
      : vr(pw.vr.window(ip)),
        vt(pw.vt.window(ip)),
        vp(pw.vp.window(ip)),
        T(pw.T.window(ip)),
        br(pw.br.window(ip)),
        bt(pw.bt.window(ip)),
        bp(pw.bp.window(ip)),
        divv(pw.divv.window(ip)),
        cvr(pw.cvr.window(ip)),
        cvt(pw.cvt.window(ip)),
        cvp(pw.cvp.window(ip)) {}
};

/// The stencil accessors of a W-lane point: lane adapters for W > 1.
template <int W>
struct Access {
  static fd::LaneMetrics<W> metrics(const SphericalGrid& g) { return {&g}; }
  static fd::FieldLanes<W> field(const Field3& f) { return {&f}; }
  static fd::RingLanes<W> ring(const Planes::Window& w) { return {&w}; }
};

/// W = 1 reads through the scalar accessors themselves, so the scalar
/// sweep is plain double arithmetic with no pack wrapper in between.
template <>
struct Access<1> {
  static const SphericalGrid& metrics(const SphericalGrid& g) { return g; }
  static const Field3& field(const Field3& f) { return f; }
  static const Planes::Window& ring(const Planes::Window& w) { return w; }
};

inline void put(double v, double* p) { *p = v; }
template <int W>
inline void put(simd::Pack<W> v, double* p) {
  v.store(p);
}

/// v = f/ρ, T = p/ρ at lanes ir…ir+W−1 of plane q (fill_vt body).
template <int W>
inline void vt_point(const SweepCtx& c, const Planes& w, int ir, int it,
                     int q) {
  using A = Access<W>;
  const auto inv_rho = 1.0 / A::field(c.state.rho)(ir, it, q);
  put(A::field(c.state.fr)(ir, it, q) * inv_rho, w.vr.at(ir, it, q));
  put(A::field(c.state.ft)(ir, it, q) * inv_rho, w.vt.at(ir, it, q));
  put(A::field(c.state.fp)(ir, it, q) * inv_rho, w.vp.at(ir, it, q));
  put(A::field(c.state.p)(ir, it, q) * inv_rho, w.T.at(ir, it, q));
}

/// B = ∇×A, ∇·v, ∇×v at lanes ir…ir+W−1 of plane q (fill_derived body).
template <int W>
inline void derived_point(const SweepCtx& c, const Planes& w, int ir,
                          int it, int q) {
  using A = Access<W>;
  const auto& g = A::metrics(c.g);
  const auto &ar = A::field(c.state.ar), &at = A::field(c.state.at),
             &ap = A::field(c.state.ap);
  const auto &Vr = A::ring(w.vr), &Vt = A::ring(w.vt), &Vp = A::ring(w.vp);
  const auto b =
      fd::curl_point(g, ar, at, ap, c.c_r, c.c_t, c.c_p, ir, it, q);
  put(b.r, w.br.at(ir, it, q));
  put(b.t, w.bt.at(ir, it, q));
  put(b.p, w.bp.at(ir, it, q));
  put(fd::div_point(g, Vr, Vt, Vp, c.c_r, c.c_t, c.c_p, ir, it, q),
      w.divv.at(ir, it, q));
  const auto cv =
      fd::curl_point(g, Vr, Vt, Vp, c.c_r, c.c_t, c.c_p, ir, it, q);
  put(cv.r, w.cvr.at(ir, it, q));
  put(cv.t, w.cvt.at(ir, it, q));
  put(cv.p, w.cvp.at(ir, it, q));
}

/// All eight tendencies at lanes ir…ir+W−1 of output plane ip, in the
/// reference chain's accumulation order (combine body).
template <int W>
inline void combine_point(const SweepCtx& c, const Planes& w, int ir,
                          int it, int ip, double st, double ct) {
  using A = Access<W>;
  const auto& g = A::metrics(c.g);
  const EquationParams& eq = c.eq;
  const auto &Srho = A::field(c.state.rho), &Sfr = A::field(c.state.fr),
             &Sft = A::field(c.state.ft), &Sfp = A::field(c.state.fp),
             &Sp = A::field(c.state.p);
  const auto &Vr = A::ring(w.vr), &Vt = A::ring(w.vt), &Vp = A::ring(w.vp),
             &Tp = A::ring(w.T), &Br = A::ring(w.br), &Bt = A::ring(w.bt),
             &Bp = A::ring(w.bp), &Dv = A::ring(w.divv),
             &Cr = A::ring(w.cvr), &Ct = A::ring(w.cvt),
             &Cp = A::ring(w.cvp);
  const double c_r = c.c_r, c_t = c.c_t, c_p = c.c_p;
  Fields& rhs = c.rhs;

  // --- eq. (2): ∂ρ/∂t = −∇·f -----------------------------------
  put(-fd::div_point(g, Sfr, Sft, Sfp, c_r, c_t, c_p, ir, it, ip),
      &rhs.rho(ir, it, ip));

  // --- eq. (3): momentum ---------------------------------------
  const auto dvf = fd::div_vf_point(g, Vr, Vt, Vp, Sfr, Sft, Sfp, c_r, c_t,
                                    c_p, ir, it, ip);
  const auto gp = fd::grad_point(g, Sp, c_r, c_t, c_p, ir, it, ip);
  auto fr_acc = -dvf.r - gp.r;
  auto ft_acc = -dvf.t - gp.t;
  auto fp_acc = -dvf.p - gp.p;
  const auto gd = fd::grad_point(g, Dv, c_r, c_t, c_p, ir, it, ip);
  fr_acc += c.c43 * gd.r;
  ft_acc += c.c43 * gd.t;
  fp_acc += c.c43 * gd.p;
  const auto cc = fd::curl_point(g, Cr, Ct, Cp, c_r, c_t, c_p, ir, it, ip);
  fr_acc -= eq.mu * cc.r;
  ft_acc -= eq.mu * cc.t;
  fp_acc -= eq.mu * cc.p;

  const double sp = c.g.sin_p(ip), cp = c.g.cos_p(ip);
  const double o_r =
      eq.omega.x * st * cp + eq.omega.y * st * sp + eq.omega.z * ct;
  const double o_t =
      eq.omega.x * ct * cp + eq.omega.y * ct * sp - eq.omega.z * st;
  const double o_p = -eq.omega.x * sp + eq.omega.y * cp;

  const auto rho = Srho(ir, it, ip);
  const auto vrc = Vr(ir, it, ip), vtc = Vt(ir, it, ip), vpc = Vp(ir, it, ip);
  const auto brc = Br(ir, it, ip), btc = Bt(ir, it, ip), bpc = Bp(ir, it, ip);
  const auto j = fd::curl_point(g, Br, Bt, Bp, c_r, c_t, c_p, ir, it, ip);
  const auto jrc = j.r, jtc = j.t, jpc = j.p;

  const auto gr = -eq.g0 * g.inv_r(ir) * g.inv_r(ir);  // g = −g0/r² r̂

  fr_acc += (jtc * bpc - jpc * btc) + rho * gr +
            2.0 * rho * (vtc * o_p - vpc * o_t);
  ft_acc += (jpc * brc - jrc * bpc) + 2.0 * rho * (vpc * o_r - vrc * o_p);
  fp_acc += (jrc * btc - jtc * brc) + 2.0 * rho * (vrc * o_t - vtc * o_r);
  put(fr_acc, &rhs.fr(ir, it, ip));
  put(ft_acc, &rhs.ft(ir, it, ip));
  put(fp_acc, &rhs.fp(ir, it, ip));

  // --- eq. (4): pressure ---------------------------------------
  const auto adv =
      fd::advect_point(g, Vr, Vt, Vp, Sp, c_r, c_t, c_p, ir, it, ip);
  const auto lap =
      fd::laplacian_point(g, Tp, c.irr, c.itt, c.ipp, c_r, c_t, ir, it, ip);
  const auto j2 = jrc * jrc + jtc * jtc + jpc * jpc;
  auto p_acc = -adv - eq.gamma * Sp(ir, it, ip) * Dv(ir, it, ip) +
               c.gm1 * (eq.kappa * lap + eq.eta * j2);
  p_acc += c.cstr * fd::strain_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, ip);
  put(p_acc, &rhs.p(ir, it, ip));

  // --- eq. (5): ∂A/∂t = −E = v×B − ηj --------------------------
  put((vtc * bpc - vpc * btc) - eq.eta * jrc, &rhs.ar(ir, it, ip));
  put((vpc * brc - vrc * bpc) - eq.eta * jtc, &rhs.at(ir, it, ip));
  put((vrc * btc - vtc * brc) - eq.eta * jpc, &rhs.ap(ir, it, ip));
}

/// The rolling sweep at pack width W (plane schedule in the file
/// comment); each radial line runs full W-lane packs then the W=1
/// instantiation over the remainder.  Flattened, so every per-point
/// body and stencil is inlined into its loop and ring/field bases hoist
/// out of the radial loops: left to the inliner's budget, shared by four
/// widths in this TU, the W=1 stencils stayed calls per point.
template <int W>
[[gnu::flatten]] void sweep(const SweepCtx& c) {
  const auto fill_vt = [&](int q) {
    const Planes w(c.pw, q);
    for (int it = c.e2.t0; it < c.e2.t1; ++it) {
      int ir = c.e2.r0;
      for (; ir + W <= c.e2.r1; ir += W) vt_point<W>(c, w, ir, it, q);
      for (; ir < c.e2.r1; ++ir) vt_point<1>(c, w, ir, it, q);
    }
  };
  const auto fill_derived = [&](int q) {
    const Planes w(c.pw, q);
    for (int it = c.e1.t0; it < c.e1.t1; ++it) {
      int ir = c.e1.r0;
      for (; ir + W <= c.e1.r1; ir += W) derived_point<W>(c, w, ir, it, q);
      for (; ir < c.e1.r1; ++ir) derived_point<1>(c, w, ir, it, q);
    }
  };
  const auto combine = [&](int ip) {
    const Planes w(c.pw, ip);
    for (int it = c.box.t0; it < c.box.t1; ++it) {
      const double st = c.g.sin_t(it), ct = c.g.cos_t(it);
      int ir = c.box.r0;
      for (; ir + W <= c.box.r1; ir += W)
        combine_point<W>(c, w, ir, it, ip, st, ct);
      for (; ir < c.box.r1; ++ir) combine_point<1>(c, w, ir, it, ip, st, ct);
    }
  };

  for (int q = c.box.p0 - 2; q < c.box.p0 + 2; ++q) fill_vt(q);
  for (int q = c.box.p0 - 1; q < c.box.p0 + 1; ++q) fill_derived(q);
  for (int ip = c.box.p0; ip < c.box.p1; ++ip) {
    fill_vt(ip + 2);
    fill_derived(ip + 1);
    combine(ip);
  }
}

}  // namespace

void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box) {
  YY_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8);
  if (box.volume() == 0) return;
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  // Same reach as the reference chain: the sweep touches box.grown(2)
  // (metric tables and state ghosts must exist there).  The pack loads
  // of a radial line stay inside the extents the scalar line touches
  // (the loop guard keeps ir+W−1 inside each loop's own bound).
  YY_REQUIRE(e2.r0 >= 0 && e2.r1 <= g.Nr());
  YY_REQUIRE(e2.t0 >= 0 && e2.t1 <= g.Nt());
  YY_REQUIRE(e2.p0 >= 0 && e2.p1 <= g.Np());
  pw.ensure(box);

  SweepCtx c{g,
             eq,
             state,
             rhs,
             pw,
             box,
             e2,
             e1,
             1.0 / (2.0 * g.dr()),
             1.0 / (2.0 * g.dt()),
             1.0 / (2.0 * g.dp()),
             1.0 / (g.dr() * g.dr()),
             1.0 / (g.dt() * g.dt()),
             1.0 / (g.dp() * g.dp()),
             4.0 / 3.0 * eq.mu,
             eq.gamma - 1.0,
             (eq.gamma - 1.0) * 2.0 * eq.mu};

  switch (width) {
    case 8:
      sweep<8>(c);
      break;
    case 4:
      sweep<4>(c);
      break;
    case 2:
      sweep<2>(c);
      break;
    default:
      sweep<1>(c);
      break;
  }

  // Analytic lane accounting: each radial line of length L issues
  // ⌊L/W⌋ full packs plus L mod W width-1 tail trips.  The measured
  // counterpart of the ES model's vector columns (perf/proginf).
  const auto vol = [](const IndexBox& b) {
    return static_cast<std::uint64_t>(b.volume());
  };
  const std::uint64_t np = static_cast<std::uint64_t>(box.p1 - box.p0);
  simd::LaneStats stats;
  const auto add_lines = [&](std::uint64_t lines, std::uint64_t len) {
    const std::uint64_t full = len / static_cast<std::uint64_t>(width);
    const std::uint64_t tail = len % static_cast<std::uint64_t>(width);
    stats.iterations += lines * (full + tail);
    if (width > 1) stats.vector_points += lines * full * width;
    stats.points += lines * len;
  };
  add_lines(static_cast<std::uint64_t>(e2.t1 - e2.t0) * (np + 4),
            static_cast<std::uint64_t>(e2.r1 - e2.r0));
  add_lines(static_cast<std::uint64_t>(e1.t1 - e1.t0) * (np + 2),
            static_cast<std::uint64_t>(e1.r1 - e1.r0));
  add_lines(static_cast<std::uint64_t>(box.t1 - box.t0) * np,
            static_cast<std::uint64_t>(box.r1 - box.r0));
  simd::lane_stats_add(stats);

  // Identical charge to the reference chain, term for term: v/T over
  // box.grown(2); B, ∇·v, ∇×v over box.grown(1); every remaining
  // operator (including the on-the-fly j = ∇×B) over box.  The lanes
  // change how the points are traversed, not how many ops each costs.
  flops::add(vol(e2) * kFlopsVelTemp +
             vol(e1) * (2 * fd::kFlopsCurl + fd::kFlopsDiv) +
             vol(box) *
                 (fd::kFlopsCurl + fd::kFlopsDiv + fd::kFlopsDivVf +
                  2 * fd::kFlopsGrad + fd::kFlopsCurl + fd::kFlopsAdvect +
                  fd::kFlopsLaplacian + fd::kFlopsStrain +
                  kFlopsPointwiseCombine));
}

void compute_rhs_simd(const SphericalGrid& g, const EquationParams& eq,
                      const Fields& state, Fields& rhs, PencilWorkspace& pw,
                      const IndexBox& box) {
  compute_rhs_simd_width(simd::active_width(), g, eq, state, rhs, pw, box);
}

void compute_rhs_parallel_simd_width(int width, const SphericalGrid& g,
                                     const EquationParams& eq,
                                     const Fields& state, Fields& rhs,
                                     std::vector<PencilWorkspace>& pw_pool,
                                     const IndexBox& box, int nthreads) {
  if (box.volume() == 0) return;
  const int np = box.p1 - box.p0;
  const int n = std::clamp(nthreads, 1, np);
  while (pw_pool.size() < static_cast<std::size_t>(n)) pw_pool.emplace_back();
  if (n == 1) {
    compute_rhs_simd_width(width, g, eq, state, rhs, pw_pool[0], box);
    return;
  }
  common::parallel_regions(n, [&](int k) {
    compute_rhs_simd_width(width, g, eq, state, rhs,
                           pw_pool[static_cast<std::size_t>(k)],
                           phi_slab(box, n, k));
  });
}

void compute_rhs_parallel_simd(const SphericalGrid& g,
                               const EquationParams& eq, const Fields& state,
                               Fields& rhs,
                               std::vector<PencilWorkspace>& pw_pool,
                               const IndexBox& box, int nthreads) {
  compute_rhs_parallel_simd_width(simd::active_width(), g, eq, state, rhs,
                                  pw_pool, box, nthreads);
}

}  // namespace yy::mhd
