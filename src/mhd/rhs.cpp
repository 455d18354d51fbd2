#include "mhd/rhs.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/microtask.hpp"
#include "grid/fd_ops.hpp"
#include "mhd/derived.hpp"

namespace yy::mhd {

Workspace::Workspace(const SphericalGrid& g) { ensure(g.interior()); }

Workspace::Workspace(const IndexBox& box) { ensure(box); }

void Workspace::ensure(const IndexBox& box) {
  const IndexBox g2 = box.grown(2);
  const IndexBox g1 = box.grown(1);
  // v and T feed the composite second-order operators, so they are
  // established over box.grown(2); the once-differentiated derived
  // fields over box.grown(1); plain operator outputs over box.
  for (common::ScratchField* f : {&vr, &vt, &vp, &T}) f->grow_to(g2);
  for (common::ScratchField* f : {&br, &bt, &bp, &divv, &cvr, &cvt, &cvp})
    f->grow_to(g1);
  for (common::ScratchField* f : {&jr, &jt, &jp, &t0, &t1, &t2, &s0, &s1})
    f->grow_to(box);
}

bool Workspace::covers(const IndexBox& box) const {
  const IndexBox g2 = box.grown(2);
  const IndexBox g1 = box.grown(1);
  return vr.covers(g2) && vt.covers(g2) && vp.covers(g2) && T.covers(g2) &&
         br.covers(g1) && bt.covers(g1) && bp.covers(g1) && divv.covers(g1) &&
         cvr.covers(g1) && cvt.covers(g1) && cvp.covers(g1) &&
         jr.covers(box) && jt.covers(box) && jp.covers(box) &&
         t0.covers(box) && t1.covers(box) && t2.covers(box) &&
         s0.covers(box) && s1.covers(box);
}

std::size_t Workspace::allocated_doubles() const {
  std::size_t n = 0;
  for (const common::ScratchField* f :
       {&vr, &vt, &vp, &T, &br, &bt, &bp, &jr, &jt, &jp, &divv, &cvr, &cvt,
        &cvp, &t0, &t1, &t2, &s0, &s1})
    n += f->allocated_doubles();
  return n;
}

void compute_rhs(const SphericalGrid& g, const EquationParams& eq,
                 const Fields& state, Fields& rhs, Workspace& ws,
                 const IndexBox& box) {
  ws.ensure(box);
  const IndexBox ext = box.grown(1);

  // --- derived fields -------------------------------------------------
  // The first-derivative fields (∇·v, ∇×v, B) are themselves
  // differentiated again, so they are evaluated on box.grown(1); their
  // own stencils then read one layer further — v and T must therefore
  // be established on box.grown(2), i.e. over the full ghost set.
  velocity_and_temperature(state, ws.vr, ws.vt, ws.vp, ws.T, box.grown(2));
  magnetic_field(g, state, ws.br, ws.bt, ws.bp, ext);   // B = ∇×A
  current_density(g, ws.br, ws.bt, ws.bp, ws.jr, ws.jt, ws.jp, box);
  fd::div(g, ws.vr, ws.vt, ws.vp, ws.divv, ext);        // ∇·v
  fd::curl(g, ws.vr, ws.vt, ws.vp, ws.cvr, ws.cvt, ws.cvp, ext);

  // --- eq. (2): ∂ρ/∂t = −∇·f -----------------------------------------
  fd::div(g, state.fr, state.ft, state.fp, ws.s0, box);
  for_box(box, [&](int ir, int it, int ip) {
    rhs.rho(ir, it, ip) = -ws.s0(ir, it, ip);
  });

  // --- eq. (3): momentum ----------------------------------------------
  // −∇·(vf): the flux divergence with curvature terms.
  fd::div_vf(g, ws.vr, ws.vt, ws.vp, state.fr, state.ft, state.fp, rhs.fr,
             rhs.ft, rhs.fp, box);
  // ∇p into (t0,t1,t2), then start combining.
  fd::grad(g, state.p, ws.t0, ws.t1, ws.t2, box);
  for_box(box, [&](int ir, int it, int ip) {
    rhs.fr(ir, it, ip) = -rhs.fr(ir, it, ip) - ws.t0(ir, it, ip);
    rhs.ft(ir, it, ip) = -rhs.ft(ir, it, ip) - ws.t1(ir, it, ip);
    rhs.fp(ir, it, ip) = -rhs.fp(ir, it, ip) - ws.t2(ir, it, ip);
  });
  // µ(4/3 ∇(∇·v) − ∇×(∇×v)).
  fd::grad(g, ws.divv, ws.t0, ws.t1, ws.t2, box);
  {
    const double c = 4.0 / 3.0 * eq.mu;
    for_box(box, [&](int ir, int it, int ip) {
      rhs.fr(ir, it, ip) += c * ws.t0(ir, it, ip);
      rhs.ft(ir, it, ip) += c * ws.t1(ir, it, ip);
      rhs.fp(ir, it, ip) += c * ws.t2(ir, it, ip);
    });
  }
  fd::curl(g, ws.cvr, ws.cvt, ws.cvp, ws.t0, ws.t1, ws.t2, box);
  for_box(box, [&](int ir, int it, int ip) {
    rhs.fr(ir, it, ip) -= eq.mu * ws.t0(ir, it, ip);
    rhs.ft(ir, it, ip) -= eq.mu * ws.t1(ir, it, ip);
    rhs.fp(ir, it, ip) -= eq.mu * ws.t2(ir, it, ip);
  });
  // j×B + ρg + 2ρ v×Ω, with Ω converted from the local Cartesian frame
  // to spherical components at each node.
  for_box(box, [&](int ir, int it, int ip) {
    const double st = g.sin_t(it), ct = g.cos_t(it);
    const double sp = g.sin_p(ip), cp = g.cos_p(ip);
    const double o_r = eq.omega.x * st * cp + eq.omega.y * st * sp + eq.omega.z * ct;
    const double o_t = eq.omega.x * ct * cp + eq.omega.y * ct * sp - eq.omega.z * st;
    const double o_p = -eq.omega.x * sp + eq.omega.y * cp;

    const double rho = state.rho(ir, it, ip);
    const double vrc = ws.vr(ir, it, ip), vtc = ws.vt(ir, it, ip),
                 vpc = ws.vp(ir, it, ip);
    const double brc = ws.br(ir, it, ip), btc = ws.bt(ir, it, ip),
                 bpc = ws.bp(ir, it, ip);
    const double jrc = ws.jr(ir, it, ip), jtc = ws.jt(ir, it, ip),
                 jpc = ws.jp(ir, it, ip);

    const double gr = -eq.g0 * g.inv_r(ir) * g.inv_r(ir);  // g = −g0/r² r̂

    rhs.fr(ir, it, ip) += (jtc * bpc - jpc * btc) + rho * gr +
                          2.0 * rho * (vtc * o_p - vpc * o_t);
    rhs.ft(ir, it, ip) += (jpc * brc - jrc * bpc) +
                          2.0 * rho * (vpc * o_r - vrc * o_p);
    rhs.fp(ir, it, ip) += (jrc * btc - jtc * brc) +
                          2.0 * rho * (vrc * o_t - vtc * o_r);
  });

  // --- eq. (4): pressure ----------------------------------------------
  fd::advect(g, ws.vr, ws.vt, ws.vp, state.p, ws.s0, box);  // v·∇p
  fd::laplacian(g, ws.T, ws.s1, box);                       // ∇²T
  {
    const double gm1 = eq.gamma - 1.0;
    for_box(box, [&](int ir, int it, int ip) {
      const double j2 = ws.jr(ir, it, ip) * ws.jr(ir, it, ip) +
                        ws.jt(ir, it, ip) * ws.jt(ir, it, ip) +
                        ws.jp(ir, it, ip) * ws.jp(ir, it, ip);
      rhs.p(ir, it, ip) = -ws.s0(ir, it, ip) -
                          eq.gamma * state.p(ir, it, ip) * ws.divv(ir, it, ip) +
                          gm1 * (eq.kappa * ws.s1(ir, it, ip) + eq.eta * j2);
    });
  }
  // + (γ−1)Φ with Φ = 2µ(e_ij e_ij − ⅓(∇·v)²).
  fd::strain_invariant(g, ws.vr, ws.vt, ws.vp, ws.s0, box);
  {
    const double c = (eq.gamma - 1.0) * 2.0 * eq.mu;
    for_box(box, [&](int ir, int it, int ip) {
      rhs.p(ir, it, ip) += c * ws.s0(ir, it, ip);
    });
  }

  // --- eq. (5): ∂A/∂t = −E = v×B − ηj ---------------------------------
  for_box(box, [&](int ir, int it, int ip) {
    const double vrc = ws.vr(ir, it, ip), vtc = ws.vt(ir, it, ip),
                 vpc = ws.vp(ir, it, ip);
    const double brc = ws.br(ir, it, ip), btc = ws.bt(ir, it, ip),
                 bpc = ws.bp(ir, it, ip);
    rhs.ar(ir, it, ip) = (vtc * bpc - vpc * btc) - eq.eta * ws.jr(ir, it, ip);
    rhs.at(ir, it, ip) = (vpc * brc - vrc * bpc) - eq.eta * ws.jt(ir, it, ip);
    rhs.ap(ir, it, ip) = (vrc * btc - vtc * brc) - eq.eta * ws.jp(ir, it, ip);
  });

  flops::add(static_cast<std::uint64_t>(box.volume()) * kFlopsPointwiseCombine);
}

RhsSplit split_rhs_box(const IndexBox& box, int rim) {
  YY_REQUIRE(rim >= 0);
  RhsSplit s;
  // Shrink in θ and φ only; clamp so degenerate extents collapse the
  // interior to zero volume instead of going negative.
  const int t_lo = std::min(box.t1, box.t0 + rim);
  const int t_hi = std::max(t_lo, box.t1 - rim);
  const int p_lo = std::min(box.p1, box.p0 + rim);
  const int p_hi = std::max(p_lo, box.p1 - rim);
  s.interior = {box.r0, box.r1, t_lo, t_hi, p_lo, p_hi};

  const auto add_rim = [&s](const IndexBox& b) {
    if (b.volume() > 0) s.rim.push_back(b);
  };
  // θ caps span the full φ range; φ flanks cover only the interior θ
  // band, so the four pieces tile box ∖ interior with no overlap.
  add_rim({box.r0, box.r1, box.t0, t_lo, box.p0, box.p1});
  add_rim({box.r0, box.r1, t_hi, box.t1, box.p0, box.p1});
  add_rim({box.r0, box.r1, t_lo, t_hi, box.p0, p_lo});
  add_rim({box.r0, box.r1, t_lo, t_hi, p_hi, box.p1});
  return s;
}

IndexBox phi_slab(const IndexBox& box, int n, int k) {
  const int np = box.p1 - box.p0;
  const int base = np / n, extra = np % n;
  IndexBox slab = box;
  // Contiguous φ-slabs; the first (np % n) slabs take one extra plane.
  slab.p0 = box.p0 + k * base + std::min(k, extra);
  slab.p1 = slab.p0 + base + (k < extra ? 1 : 0);
  return slab;
}

void compute_rhs_parallel(const SphericalGrid& g, const EquationParams& eq,
                          const Fields& state, Fields& rhs,
                          std::vector<Workspace>& ws_pool, const IndexBox& box,
                          int nthreads) {
  if (box.volume() == 0) return;
  // One slab per thread, at least one φ plane per slab.
  const int np = box.p1 - box.p0;
  const int n = std::clamp(nthreads, 1, np);
  // Each pool entry grows to cover only its slab (compute_rhs ensures
  // on entry), so resident scratch is ~19 slab-sized blocks per thread
  // — the full-box total plus one stencil halo per extra thread —
  // instead of the historic 19×YY_THREADS full-grid arrays; see the
  // YY_THREADS policy note in common/microtask.hpp.
  while (ws_pool.size() < static_cast<std::size_t>(n)) ws_pool.emplace_back();
  if (n == 1) {
    compute_rhs(g, eq, state, rhs, ws_pool[0], box);
    return;
  }
  common::parallel_regions(n, [&](int k) {
    compute_rhs(g, eq, state, rhs, ws_pool[static_cast<std::size_t>(k)],
                phi_slab(box, n, k));
  });
}

}  // namespace yy::mhd
