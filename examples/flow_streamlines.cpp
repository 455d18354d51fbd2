/// Flow streamlines of the developed convection state — the
/// visualization style of the paper's Fig. 2(a)/(b), where flow
/// structures are rendered as lines that cross the Yin-Yang internal
/// border without any seam.  Writes streamlines.csv (line, x, y, z) for
/// plotting, plus a meridional temperature section (meridional.ppm).
#include <cstdio>
#include <cstdlib>

#include "core/serial_solver.hpp"
#include "io/fieldline.hpp"
#include "io/slice.hpp"
#include "mhd/derived.hpp"

using namespace yy;
using yinyang::Panel;

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 250;

  core::SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = 17;
  cfg.np_core = 49;
  cfg.eq.mu = 1.5e-3;
  cfg.eq.kappa = 1.5e-3;
  cfg.eq.eta = 1.5e-3;
  cfg.eq.g0 = 3.0;
  cfg.eq.omega = {0.0, 0.0, 15.0};
  cfg.thermal = {2.5, 1.0};
  cfg.ic.perturb_amp = 2e-2;

  std::printf("== Flow streamlines across the Yin-Yang border =================\n");
  core::SerialYinYangSolver solver(cfg);
  solver.initialize();
  for (int i = 0; i < steps; ++i) solver.step(solver.stable_dt());
  std::printf("ran %d steps to t = %.4f (KE %.3e)\n", steps, solver.time(),
              solver.energies().kinetic);

  // Velocity on both panels.
  const SphericalGrid& g = solver.grid();
  Field3 vy[3], vg[3];
  for (int i = 0; i < 3; ++i) {
    vy[i] = Field3(g.Nr(), g.Nt(), g.Np());
    vg[i] = Field3(g.Nr(), g.Nt(), g.Np());
  }
  Field3 t_yin(g.Nr(), g.Nt(), g.Np()), t_yang(g.Nr(), g.Nt(), g.Np());
  mhd::velocity_and_temperature(solver.panel(Panel::yin), vy[0], vy[1], vy[2],
                                t_yin, g.full());
  mhd::velocity_and_temperature(solver.panel(Panel::yang), vg[0], vg[1], vg[2],
                                t_yang, g.full());

  io::SphereSampler sampler(g, solver.geometry());
  io::TraceOptions opt;
  opt.step = 0.01;
  opt.max_steps = 600;
  opt.r_inner = cfg.shell.r_inner + 0.01;
  opt.r_outer = cfg.shell.r_outer - 0.01;
  const double r_seed = 0.5 * (cfg.shell.r_inner + cfg.shell.r_outer);
  const bool ok = io::trace_ring_to_csv(
      sampler, {&vy[0], &vy[1], &vy[2]}, {&vg[0], &vg[1], &vg[2]}, r_seed, 12,
      opt, "streamlines.csv");
  std::printf("%s streamlines.csv (12 seeds on the mid-depth equator)\n",
              ok ? "wrote" : "FAILED to write");

  const io::MeridionalSlice mer = io::sample_meridional_scalar(
      sampler, t_yin, t_yang, cfg.shell.r_inner, cfg.shell.r_outer, 0.0, 32,
      64);
  io::write_meridional_ppm(mer, "meridional.ppm", 400);
  std::printf("wrote meridional.ppm (temperature section through the axis)\n");
  return 0;
}
