#include "baseline/latlon_solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace yy::baseline {

namespace {

GridSpec latlon_spec(const LatLonConfig& cfg) {
  YY_REQUIRE(cfg.np % 2 == 0);  // pole mapping shifts φ by half a circle
  const double pi = 3.14159265358979323846;
  const double dt = pi / cfg.nt;
  GridSpec s;
  s.nr = cfg.nr;
  s.nt = cfg.nt;
  s.np = cfg.np;
  s.r0 = cfg.shell.r_inner;
  s.r1 = cfg.shell.r_outer;
  s.t0 = 0.5 * dt;        // cell-centred: no node on the singularity
  s.t1 = pi - 0.5 * dt;
  s.p0 = -pi;
  s.p1 = pi;
  s.ghost = 2;
  s.phi_periodic = true;
  return s;
}

mhd::ColumnWeights interior_weights(const SphericalGrid& g) {
  mhd::ColumnWeights w(g.Nt(), g.Np(), 0.0);
  const IndexBox in = g.interior();
  for (int it = in.t0; it < in.t1; ++it)
    for (int ip = in.p0; ip < in.p1; ++ip) w.at(it, ip) = 1.0;
  return w;
}

}  // namespace

LatLonSolver::LatLonSolver(const LatLonConfig& cfg)
    : cfg_(cfg),
      grid_(latlon_spec(cfg)),
      bc_(cfg.thermal),
      state_(grid_),
      integrator_(mhd::TimeScheme::rk4, {&grid_}, mhd::RhsBackend::simd),
      weights_(interior_weights(grid_)) {}

void LatLonSolver::initialize() {
  mhd::initialize_state(grid_, cfg_.shell, cfg_.thermal, cfg_.eq.g0, cfg_.ic,
                        /*panel_id=*/7, {0, 0}, state_);
  fill_ghosts(state_);
  time_ = 0.0;
}

void LatLonSolver::wrap_phi(mhd::Fields& s) const {
  const int gh = grid_.ghost();
  const int np = grid_.spec().np;
  for (Field3* f : s.all()) {
    for (int it = 0; it < grid_.Nt(); ++it) {
      for (int k = 1; k <= gh; ++k) {
        for (int ir = 0; ir < grid_.Nr(); ++ir) {
          (*f)(ir, it, gh - k) = (*f)(ir, it, gh + np - k);
          (*f)(ir, it, gh + np - 1 + k) = (*f)(ir, it, gh + k - 1);
        }
      }
    }
  }
}

void LatLonSolver::pole_ghosts(mhd::Fields& s) const {
  const int gh = grid_.ghost();
  const int nt = grid_.spec().nt;
  const int np = grid_.spec().np;
  // Row it = gh−k lies at colatitude −(k−½)dθ, i.e. the physical point
  // at +(k−½)dθ seen from longitude φ+π; the radial component is
  // continuous across the pole while θ̂ and φ̂ reverse.
  auto map_row = [&](int ghost_row, int mirror_row) {
    for (int ip = 0; ip < grid_.Np(); ++ip) {
      const int ip_int = ((ip - gh) % np + np) % np;
      const int ip_src = (ip_int + np / 2) % np + gh;
      for (int ir = 0; ir < grid_.Nr(); ++ir) {
        s.rho(ir, ghost_row, ip) = s.rho(ir, mirror_row, ip_src);
        s.p(ir, ghost_row, ip) = s.p(ir, mirror_row, ip_src);
        s.fr(ir, ghost_row, ip) = s.fr(ir, mirror_row, ip_src);
        s.ar(ir, ghost_row, ip) = s.ar(ir, mirror_row, ip_src);
        s.ft(ir, ghost_row, ip) = -s.ft(ir, mirror_row, ip_src);
        s.fp(ir, ghost_row, ip) = -s.fp(ir, mirror_row, ip_src);
        s.at(ir, ghost_row, ip) = -s.at(ir, mirror_row, ip_src);
        s.ap(ir, ghost_row, ip) = -s.ap(ir, mirror_row, ip_src);
      }
    }
  };
  for (int k = 1; k <= gh; ++k) {
    map_row(gh - k, gh + k - 1);                    // north pole
    map_row(gh + nt - 1 + k, gh + nt - k);          // south pole
  }
}

void LatLonSolver::polar_filter(mhd::Fields& s) const {
  if (cfg_.polar_filter_threshold <= 0.0) return;
  const int gh = grid_.ghost();
  const int np = grid_.spec().np;
  std::vector<double> line(static_cast<std::size_t>(np));
  for (int it = gh; it < gh + grid_.spec().nt; ++it) {
    const double st = grid_.sin_t(it);
    if (st >= cfg_.polar_filter_threshold) continue;
    const int passes = std::clamp(
        static_cast<int>(cfg_.polar_filter_threshold / st), 1, np / 4);
    for (Field3* f : s.all()) {
      for (int ir = gh; ir < gh + grid_.spec().nr; ++ir) {
        for (int pass = 0; pass < passes; ++pass) {
          for (int k = 0; k < np; ++k)
            line[static_cast<std::size_t>(k)] = (*f)(ir, it, gh + k);
          for (int k = 0; k < np; ++k) {
            const double lo = line[static_cast<std::size_t>((k + np - 1) % np)];
            const double hi = line[static_cast<std::size_t>((k + 1) % np)];
            (*f)(ir, it, gh + k) =
                0.25 * lo + 0.5 * line[static_cast<std::size_t>(k)] + 0.25 * hi;
          }
        }
      }
    }
  }
}

void LatLonSolver::fill_ghosts(mhd::Fields& s) {
  pole_ghosts(s);
  wrap_phi(s);
  bc_.fill_ghosts(grid_, s);
}

void LatLonSolver::step(double dt) {
  std::vector<mhd::PatchDef> patches{{&grid_, cfg_.eq, &state_}};
  integrator_.step(patches, dt, [this](const std::vector<mhd::Fields*>& s) {
    fill_ghosts(*s[0]);
  });
  polar_filter(state_);
  if (cfg_.polar_filter_threshold > 0.0) fill_ghosts(state_);
  time_ += dt;
}

double LatLonSolver::stable_dt() {
  return cfg_.cfl_safety *
         mhd::stable_timestep(grid_, cfg_.eq, state_, grid_.interior());
}

mhd::EnergyBudget LatLonSolver::energies() {
  return mhd::integrate_energies(grid_, cfg_.eq, state_, weights_,
                                 grid_.interior());
}

double LatLonSolver::pole_crowding_fraction() const {
  const IndexBox in = grid_.interior();
  int crowded = 0;
  for (int it = in.t0; it < in.t1; ++it)
    if (grid_.sin_t(it) < 0.5) ++crowded;
  return static_cast<double>(crowded) / grid_.spec().nt;
}

}  // namespace yy::baseline
