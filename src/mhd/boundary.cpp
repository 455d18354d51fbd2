#include "mhd/boundary.hpp"

namespace yy::mhd {

void RadialBoundary::apply_wall(const SphericalGrid& g, Fields& s,
                                int wall_index, int ghost_direction,
                                double t_bc) const {
  const int iw = wall_index;
  const int dir = ghost_direction;  // −1: ghosts below the wall, +1: above
  for (int ip = 0; ip < g.Np(); ++ip) {
    for (int it = 0; it < g.Nt(); ++it) {
      // Wall node: rigid no-slip, fixed temperature, clamped potential.
      s.fr(iw, it, ip) = 0.0;
      s.ft(iw, it, ip) = 0.0;
      s.fp(iw, it, ip) = 0.0;
      s.p(iw, it, ip) = s.rho(iw, it, ip) * t_bc;
      s.ar(iw, it, ip) = 0.0;
      s.at(iw, it, ip) = 0.0;
      s.ap(iw, it, ip) = 0.0;
      for (int k = 1; k <= g.ghost(); ++k) {
        const int ig = iw + dir * k;   // ghost node
        const int im = iw - dir * k;   // mirror interior node
        s.fr(ig, it, ip) = -s.fr(im, it, ip);
        s.ft(ig, it, ip) = -s.ft(im, it, ip);
        s.fp(ig, it, ip) = -s.fp(im, it, ip);
        s.ar(ig, it, ip) = -s.ar(im, it, ip);
        s.at(ig, it, ip) = -s.at(im, it, ip);
        s.ap(ig, it, ip) = -s.ap(im, it, ip);
        const double rho_m = s.rho(im, it, ip);
        const double t_m = s.p(im, it, ip) / rho_m;
        s.rho(ig, it, ip) = rho_m;                       // zero-gradient ρ
        s.p(ig, it, ip) = rho_m * (2.0 * t_bc - t_m);    // odd T about T_bc
      }
    }
  }
}

void RadialBoundary::fill_ghosts(const SphericalGrid& g, Fields& s) const {
  const int gi = g.ghost();
  const int go = g.ghost() + g.spec().nr - 1;
  if (inner_) apply_wall(g, s, gi, -1, thermal_.t_inner);
  if (outer_) apply_wall(g, s, go, +1, thermal_.t_outer);
}

}  // namespace yy::mhd
