#include "mhd/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mhd/derived.hpp"

namespace yy::mhd {

EnergyBudget integrate_energies(const SphericalGrid& g,
                                const EquationParams& eq, const Fields& s,
                                Workspace& ws, const ColumnWeights& weights,
                                const IndexBox& box) {
  magnetic_field(g, s, ws.br, ws.bt, ws.bp, box);
  EnergyBudget e;
  for_box(box, [&](int ir, int it, int ip) {
    double w = weights.at(it, ip);
    if (w == 0.0) return;
    // Radial trapezoid end-weights: the box's radial ends are the
    // physical walls (the radial direction is never decomposed).
    if (ir == box.r0 || ir == box.r1 - 1) w *= 0.5;
    const double dv = w * g.volume_element(ir, it);
    const double rho = s.rho(ir, it, ip);
    const double f2 = s.fr(ir, it, ip) * s.fr(ir, it, ip) +
                      s.ft(ir, it, ip) * s.ft(ir, it, ip) +
                      s.fp(ir, it, ip) * s.fp(ir, it, ip);
    const double b2 = ws.br(ir, it, ip) * ws.br(ir, it, ip) +
                      ws.bt(ir, it, ip) * ws.bt(ir, it, ip) +
                      ws.bp(ir, it, ip) * ws.bp(ir, it, ip);
    e.mass += rho * dv;
    e.kinetic += 0.5 * f2 / rho * dv;
    e.magnetic += 0.5 * b2 * dv;
    e.thermal += s.p(ir, it, ip) / (eq.gamma - 1.0) * dv;
  });
  return e;
}

double stable_timestep(const SphericalGrid& g, const EquationParams& eq,
                       const Fields& s, Workspace& ws, const IndexBox& box) {
  magnetic_field(g, s, ws.br, ws.bt, ws.bp, box);
  double max_rate = 0.0;
  bool finite = true;
  for_box(box, [&](int ir, int it, int ip) {
    const double rho = s.rho(ir, it, ip);
    const double inv_rho = 1.0 / rho;
    const double vr = std::abs(s.fr(ir, it, ip)) * inv_rho;
    const double vt = std::abs(s.ft(ir, it, ip)) * inv_rho;
    const double vp = std::abs(s.fp(ir, it, ip)) * inv_rho;
    const double b2 = ws.br(ir, it, ip) * ws.br(ir, it, ip) +
                      ws.bt(ir, it, ip) * ws.bt(ir, it, ip) +
                      ws.bp(ir, it, ip) * ws.bp(ir, it, ip);
    // Fast magnetosonic speed bound: sqrt(c_s² + c_A²).
    const double cf =
        std::sqrt((eq.gamma * s.p(ir, it, ip) + b2) * inv_rho);
    const double ihr = 1.0 / g.dr();
    const double iht = g.inv_r(ir) / g.dt();
    const double ihp = g.inv_r(ir) * g.inv_sin_t(it) / g.dp();
    const double adv =
        (vr + cf) * ihr + (vt + cf) * iht + (vp + cf) * ihp;
    // Explicit diffusion limit for the three dissipation constants;
    // thermal diffusivity carries the γK/ρ factor of eq. (4) recast as
    // a temperature equation.
    const double diff_coef =
        std::max({eq.mu * inv_rho, eq.gamma * eq.kappa * inv_rho, eq.eta});
    const double diff =
        2.0 * diff_coef * (ihr * ihr + iht * iht + ihp * ihp);
    const double rate = adv + diff;
    // std::max drops a NaN rate, so non-finite points are flagged apart.
    finite = finite && std::isfinite(rate);
    max_rate = std::max(max_rate, rate);
  });
  if (!finite) return std::numeric_limits<double>::quiet_NaN();
  return max_rate > 0.0 ? 1.0 / max_rate : 1e30;
}

}  // namespace yy::mhd
