#include "core/serial_solver.hpp"

#include <cmath>
#include <limits>

#include "core/ownership.hpp"
#include "mhd/init.hpp"
#include "obs/trace.hpp"
#include "yinyang/transform.hpp"

namespace yy::core {

using yinyang::Panel;

SerialYinYangSolver::SerialYinYangSolver(const SimulationConfig& cfg)
    : cfg_(cfg),
      geom_(yinyang::ComponentGeometry::with_auto_margin(cfg.nt_core,
                                                         cfg.np_core)),
      grid_(geom_.make_grid_spec(cfg.nr, cfg.shell.r_inner, cfg.shell.r_outer)),
      interp_(geom_),
      bc_(cfg.thermal),
      eq_yin_(cfg.eq),
      eq_yang_(cfg.eq.for_partner_panel()),
      yin_(grid_),
      yang_(grid_),
      integrator_(cfg.scheme, {&grid_, &grid_}, cfg.rhs_backend),
      weights_(ownership_weights(geom_, grid_, 0, 0)) {}

void SerialYinYangSolver::initialize() {
  mhd::initialize_state(grid_, cfg_.shell, cfg_.thermal, cfg_.eq.g0, cfg_.ic,
                        0, {0, 0}, yin_);
  mhd::initialize_state(grid_, cfg_.shell, cfg_.thermal, cfg_.eq.g0, cfg_.ic,
                        1, {0, 0}, yang_);
  fill_ghosts(yin_, yang_);
  time_ = 0.0;
  steps_ = 0;
}

void SerialYinYangSolver::fill_ghosts(mhd::Fields& yin, mhd::Fields& yang) {
  // 1. Overset internal boundary conditions, both directions.  By the
  //    complementarity of eq. (1) the same interpolator serves both.
  //    (In-process, the `overset_wait` span measures interpolation
  //    compute — the serial analogue of the distributed exchange.)
  {
    YY_TRACE_SCOPE(obs::Phase::overset_wait);
    auto overset = [&](const mhd::Fields& donor, mhd::Fields& recv) {
      interp_.fill_scalar(grid_, donor.rho, recv.rho);
      interp_.fill_scalar(grid_, donor.p, recv.p);
      interp_.fill_vector(grid_, donor.fr, donor.ft, donor.fp, recv.fr,
                          recv.ft, recv.fp);
      interp_.fill_vector(grid_, donor.ar, donor.at, donor.ap, recv.ar,
                          recv.at, recv.ap);
    };
    overset(yang, yin);
    overset(yin, yang);
  }
  // 2. Radial ghosts and wall nodes last, over every column incl. the
  //    fresh ghosts.  The overset copies land on ghost columns only, so
  //    no wall pass is needed before them.
  YY_TRACE_SCOPE(obs::Phase::boundary);
  bc_.fill_ghosts(grid_, yin);
  bc_.fill_ghosts(grid_, yang);
}

void SerialYinYangSolver::step(double dt) {
  obs::set_current_step(steps_);
  std::vector<mhd::PatchDef> patches{{&grid_, eq_yin_, &yin_},
                                     {&grid_, eq_yang_, &yang_}};
  integrator_.step(patches, dt, [this](const std::vector<mhd::Fields*>& s) {
    fill_ghosts(*s[0], *s[1]);
  });
  time_ += dt;
  ++steps_;
}

double SerialYinYangSolver::stable_dt() {
  const double a = mhd::stable_timestep(grid_, eq_yin_, yin_, grid_.interior());
  const double b =
      mhd::stable_timestep(grid_, eq_yang_, yang_, grid_.interior());
  // std::min(a, b) keeps a NaN only as its left operand.
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<double>::quiet_NaN();
  return cfg_.cfl_safety * std::min(a, b);
}

mhd::EnergyBudget SerialYinYangSolver::energies() {
  mhd::EnergyBudget e = mhd::integrate_energies(grid_, eq_yin_, yin_, weights_,
                                                grid_.interior());
  e += mhd::integrate_energies(grid_, eq_yang_, yang_, weights_,
                               grid_.interior());
  return e;
}

std::pair<double, double> SerialYinYangSolver::double_solution_error(
    int field_index) {
  using yinyang::Angles;
  using yinyang::ComponentGeometry;
  // Compare Yin's interior values in the overlap region against
  // interpolation from Yang (scalar comparison; for vector components
  // this is only meaningful for field 0 (ρ) and 4 (p), or after
  // rotating — tests use the scalars).
  const Field3& mine = *yin_.all()[static_cast<std::size_t>(field_index)];
  const Field3& partner = *yang_.all()[static_cast<std::size_t>(field_index)];
  const IndexBox in = grid_.interior();
  double sum2 = 0.0, maxd = 0.0;
  long long count = 0;
  for (int it = in.t0; it < in.t1; ++it) {
    for (int ip = in.p0; ip < in.p1; ++ip) {
      const Angles a{grid_.theta(it), grid_.phi(ip)};
      if (!ComponentGeometry::in_core(a)) continue;
      const Angles b = yinyang::partner_angles(a);
      if (!ComponentGeometry::in_core(b)) continue;  // not in overlap
      for (int ir = in.r0; ir < in.r1; ++ir) {
        const double v = mine(ir, it, ip);
        const double w = yinyang::OversetInterpolator::interpolate_at(
            grid_, partner, geom_, b, ir);
        const double d = std::abs(v - w);
        sum2 += d * d;
        maxd = std::max(maxd, d);
        ++count;
      }
    }
  }
  return {count > 0 ? std::sqrt(sum2 / count) : 0.0, maxd};
}

}  // namespace yy::core
