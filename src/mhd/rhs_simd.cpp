/// \file rhs_simd.cpp
/// The production RHS kernel: one rolling-pencil sweep over φ evaluating
/// all eight tendencies per point, with its radial inner loops widened
/// to W-lane packs (common/simd.hpp) plus a width-1 remainder tail, and
/// each tendency stored straight into the Runge-Kutta stage update
/// (StageUpdate, rhs.hpp).  Bitwise identical to the reference
/// operator-at-a-time chain plus apply_stage_update in rhs.cpp (see
/// DESIGN.md §11).
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
/// template, instantiated at every width — W > 1 and the W = 1
/// remainder tails, -DYY_SIMD=OFF builds and YY_SIMD=scalar alike —
/// over the accessors of grid/fd_stencils_simd.hpp: FieldLanes (a raw
/// base pointer per field over the strides every patch array shares),
/// RingLanes (a PlaneRing window) and LaneMetrics (1/r per lane, the θ
/// metrics bound once per θ row).  At W = 1 they load plain doubles.
/// The source expressions never change; each point computes all eight
/// tendencies before its eight stores.  Pack arithmetic is strictly
/// elementwise and the build pins -ffp-contract=off, so lane i of any
/// pack equals the scalar evaluation at ir+i bit for bit.  The
/// equivalence suite (tests/mhd/test_rhs_simd.cpp) pins this against
/// compute_rhs for every width and for boxes of every shape.
///
/// This TU is compiled with the native ISA flags (see src/mhd/
/// CMakeLists.txt) so the packs lower to real vector instructions; the
/// rest of the tree keeps the portable baseline flags.
#include <array>

#include "common/error.hpp"
#include "common/flops.hpp"
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

/// Fields::all() order, for the raw field bases below.
enum : int { kRho, kFr, kFt, kFp, kP, kAr, kAt, kAp };

/// Everything a sweep needs, bundled so the per-point templates take
/// one argument.  Every patch array is a raw base pointer over the
/// shared strides `s` (fd_stencils_simd.hpp).
struct SweepCtx {
  const SphericalGrid& g;
  const EquationParams& eq;
  PencilWorkspace& pw;
  IndexBox box, e2, e1;
  double c_r, c_t, c_p, irr, itt, ipp;
  double c43, gm1, cstr;
  fd::Strides s;
  // The source state and the StageUpdate resolved per field
  // (Fields::all() order); null base / acc entries mean a plain store /
  // no accumulator.
  std::array<const double*, Fields::kNumFields> src{}, base{}, acc_base{};
  std::array<double*, Fields::kNumFields> out{}, acc{};
  double a = 0.0, b = 0.0;

  template <int W>
  fd::FieldLanes<W> field(int f) const {
    return {src[f], s};
  }
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

inline void put(double v, double* p) { *p = v; }
template <int W>
inline void put(simd::Pack<W> v, double* p) {
  v.store(p);
}

/// Stores tendency v of field f (Fields::all() index) at flat offset o
/// (lanes ir…ir+W−1 of one point): the StageUpdate expressions of
/// rhs.hpp, acc before out.
template <int W, class V>
inline void store(const SweepCtx& c, int f, const V& v, std::ptrdiff_t o) {
  if (c.acc[f] != nullptr)
    put(fd::lanes<W>(c.acc_base[f] + o) + c.b * v, c.acc[f] + o);
  if (c.base[f] != nullptr)
    put(fd::lanes<W>(c.base[f] + o) + c.a * v, c.out[f] + o);
  else
    put(v, c.out[f] + o);
}

/// v = f/ρ, T = p/ρ at lanes ir…ir+W−1 of plane q (fill_vt body).
template <int W>
inline void vt_point(const SweepCtx& c, const Planes& w, int ir, int it,
                     int q) {
  const auto inv_rho = 1.0 / c.field<W>(kRho)(ir, it, q);
  put(c.field<W>(kFr)(ir, it, q) * inv_rho, w.vr.at(ir, it, q));
  put(c.field<W>(kFt)(ir, it, q) * inv_rho, w.vt.at(ir, it, q));
  put(c.field<W>(kFp)(ir, it, q) * inv_rho, w.vp.at(ir, it, q));
  put(c.field<W>(kP)(ir, it, q) * inv_rho, w.T.at(ir, it, q));
}

/// B = ∇×A, ∇·v, ∇×v at lanes ir…ir+W−1 of plane q (fill_derived body).
template <int W>
inline void derived_point(const SweepCtx& c, const fd::LaneMetrics<W>& g,
                          const Planes& w, int ir, int it, int q) {
  const auto ar = c.field<W>(kAr), at = c.field<W>(kAt),
             ap = c.field<W>(kAp);
  const fd::RingLanes<W> Vr{w.vr}, Vt{w.vt}, Vp{w.vp};
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
/// reference chain's accumulation order, then the eight store() calls
/// as one block (combine body): no store sits between two loads, so
/// the compiler may share any load or subexpression across tendencies.
template <int W>
inline void combine_point(const SweepCtx& c, const fd::LaneMetrics<W>& g,
                          const Planes& w, int ir, int it, int ip, double st,
                          double ct) {
  const EquationParams& eq = c.eq;
  const auto Srho = c.field<W>(kRho), Sfr = c.field<W>(kFr),
             Sft = c.field<W>(kFt), Sfp = c.field<W>(kFp),
             Sp = c.field<W>(kP);
  const fd::RingLanes<W> Vr{w.vr}, Vt{w.vt}, Vp{w.vp}, Tp{w.T}, Br{w.br},
      Bt{w.bt}, Bp{w.bp}, Dv{w.divv}, Cr{w.cvr}, Ct{w.cvt}, Cp{w.cvp};
  const double c_r = c.c_r, c_t = c.c_t, c_p = c.c_p;

  // --- eq. (2): ∂ρ/∂t = −∇·f -----------------------------------
  const auto rho_t =
      -fd::div_point(g, Sfr, Sft, Sfp, c_r, c_t, c_p, ir, it, ip);

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

  // --- eq. (4): pressure ---------------------------------------
  const auto adv =
      fd::advect_point(g, Vr, Vt, Vp, Sp, c_r, c_t, c_p, ir, it, ip);
  const auto lap =
      fd::laplacian_point(g, Tp, c.irr, c.itt, c.ipp, c_r, c_t, ir, it, ip);
  const auto j2 = jrc * jrc + jtc * jtc + jpc * jpc;
  auto p_acc = -adv - eq.gamma * Sp(ir, it, ip) * Dv(ir, it, ip) +
               c.gm1 * (eq.kappa * lap + eq.eta * j2);
  p_acc += c.cstr * fd::strain_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, ip);

  // --- eq. (5): ∂A/∂t = −E = v×B − ηj --------------------------
  const auto ar_t = (vtc * bpc - vpc * btc) - eq.eta * jrc;
  const auto at_t = (vpc * brc - vrc * bpc) - eq.eta * jtc;
  const auto ap_t = (vrc * btc - vtc * brc) - eq.eta * jpc;

  const std::ptrdiff_t o = c.s.at<W>(ir, it, ip);
  store<W>(c, kRho, rho_t, o);
  store<W>(c, kFr, fr_acc, o);
  store<W>(c, kFt, ft_acc, o);
  store<W>(c, kFp, fp_acc, o);
  store<W>(c, kP, p_acc, o);
  store<W>(c, kAr, ar_t, o);
  store<W>(c, kAt, at_t, o);
  store<W>(c, kAp, ap_t, o);
}

/// The rolling sweep at pack width W (plane schedule in the file
/// comment); each radial line runs full W-lane packs then the W=1
/// instantiation over the remainder, with the θ metrics bound once per
/// row.  Every line adds the trips its two loops ran to the sweep's
/// simd::LaneStats, published once at the end: the lane statistics
/// count the loops as they ran, not a formula over the box shapes.
/// Flattened, so every per-point body and stencil is inlined into its
/// loop and ring/field bases hoist out of the radial loops: left to the
/// inliner's budget, shared by four widths in this TU, the W=1 stencils
/// stayed calls per point.
template <int W>
[[gnu::flatten]] void sweep(const SweepCtx& c) {
  simd::LaneStats lanes;
  const auto count = [&](std::uint64_t packs, std::uint64_t tails) {
    lanes.iterations += packs + tails;
    if constexpr (W > 1) lanes.vector_points += packs * W;
    lanes.points += packs * W + tails;
  };
  const auto fill_vt = [&](int q) {
    const Planes w(c.pw, q);
    for (int it = c.e2.t0; it < c.e2.t1; ++it) {
      int ir = c.e2.r0, packs = 0, tails = 0;
      for (; ir + W <= c.e2.r1; ir += W, ++packs)
        vt_point<W>(c, w, ir, it, q);
      for (; ir < c.e2.r1; ++ir, ++tails) vt_point<1>(c, w, ir, it, q);
      count(packs, tails);
    }
  };
  const auto fill_derived = [&](int q) {
    const Planes w(c.pw, q);
    for (int it = c.e1.t0; it < c.e1.t1; ++it) {
      const fd::LaneMetrics<W> gw(c.g, it);
      const fd::LaneMetrics<1> g1(c.g, it);
      int ir = c.e1.r0, packs = 0, tails = 0;
      for (; ir + W <= c.e1.r1; ir += W, ++packs)
        derived_point<W>(c, gw, w, ir, it, q);
      for (; ir < c.e1.r1; ++ir, ++tails)
        derived_point<1>(c, g1, w, ir, it, q);
      count(packs, tails);
    }
  };
  const auto combine = [&](int ip) {
    const Planes w(c.pw, ip);
    for (int it = c.box.t0; it < c.box.t1; ++it) {
      const fd::LaneMetrics<W> gw(c.g, it);
      const fd::LaneMetrics<1> g1(c.g, it);
      const double st = c.g.sin_t(it), ct = c.g.cos_t(it);
      int ir = c.box.r0, packs = 0, tails = 0;
      for (; ir + W <= c.box.r1; ir += W, ++packs)
        combine_point<W>(c, gw, w, ir, it, ip, st, ct);
      for (; ir < c.box.r1; ++ir, ++tails)
        combine_point<1>(c, g1, w, ir, it, ip, st, ct);
      count(packs, tails);
    }
  };

  for (int q = c.box.p0 - 2; q < c.box.p0 + 2; ++q) fill_vt(q);
  for (int q = c.box.p0 - 1; q < c.box.p0 + 1; ++q) fill_derived(q);
  for (int ip = c.box.p0; ip < c.box.p1; ++ip) {
    fill_vt(ip + 2);
    fill_derived(ip + 1);
    combine(ip);
  }
  simd::lane_stats_add(lanes);
}

}  // namespace

void compute_stage_simd_width(int width, const SphericalGrid& g,
                              const EquationParams& eq, const Fields& state,
                              const StageUpdate& upd, PencilWorkspace& pw,
                              const IndexBox& box) {
  YY_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8);
  YY_REQUIRE(upd.well_formed());
  // The sweep still reads `state` planes up to ip+2 after storing plane
  // ip, so nothing it stores may be `state`.
  YY_REQUIRE(upd.out != &state && upd.acc != &state);
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
  // Every array the sweep addresses shares the grid's shape: one set of
  // strides serves them all.
  const auto grid_shaped = [&](const Fields* f) {
    if (f == nullptr) return true;
    for (const Field3* a : f->all())
      if (a->nr() != g.Nr() || a->nt() != g.Nt() || a->np() != g.Np())
        return false;
    return true;
  };
  YY_REQUIRE(grid_shaped(&state) && grid_shaped(upd.out) &&
             grid_shaped(upd.base) && grid_shaped(upd.acc) &&
             grid_shaped(upd.acc_base));
  pw.ensure(box);

  SweepCtx c{g,
             eq,
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
             (eq.gamma - 1.0) * 2.0 * eq.mu,
             fd::Strides(state.rho)};
  for (int f = 0; f < Fields::kNumFields; ++f) {
    c.src[f] = state.all()[f]->data();
    c.out[f] = upd.out->all()[f]->data();
    if (upd.base != nullptr) c.base[f] = upd.base->all()[f]->data();
    if (upd.acc != nullptr) {
      c.acc[f] = upd.acc->all()[f]->data();
      c.acc_base[f] = upd.acc_base->all()[f]->data();
    }
  }
  c.a = upd.a;
  c.b = upd.b;

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

  const auto vol = [](const IndexBox& b) {
    return static_cast<std::uint64_t>(b.volume());
  };
  // Identical charge to compute_rhs + apply_stage_update, term for
  // term: v/T over box.grown(2); B, ∇·v, ∇×v over box.grown(1); every
  // remaining operator (including the on-the-fly j = ∇×B) and the stage
  // update over box.  The lanes change how the points are traversed,
  // not how many ops each costs.
  flops::add(vol(e2) * kFlopsVelTemp +
             vol(e1) * (2 * fd::kFlopsCurl + fd::kFlopsDiv) +
             vol(box) *
                 (fd::kFlopsCurl + fd::kFlopsDiv + fd::kFlopsDivVf +
                  2 * fd::kFlopsGrad + fd::kFlopsCurl + fd::kFlopsAdvect +
                  fd::kFlopsLaplacian + fd::kFlopsStrain +
                  kFlopsPointwiseCombine + upd.updates() * kFlopsStageUpdate));
}

void compute_stage_simd(const SphericalGrid& g, const EquationParams& eq,
                        const Fields& src, const StageUpdate& upd,
                        PencilWorkspace& pw, const IndexBox& box) {
  compute_stage_simd_width(simd::active_width(), g, eq, src, upd, pw, box);
}

void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box) {
  compute_stage_simd_width(width, g, eq, state, StageUpdate{&rhs}, pw, box);
}

}  // namespace yy::mhd
