/// Fig. 2 scenario at example scale — "thermal convection motion in a
/// rapidly rotating spherical shell is organized as a set of columnar
/// convection cells".  Integrates past convective onset and renders the
/// equatorial-plane z-vorticity, the two-colour cyclonic/anti-cyclonic
/// view of the paper's Fig. 2(a)/(c), plus snapshots at several times.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/serial_solver.hpp"
#include "grid/fd_ops.hpp"
#include "io/slice.hpp"
#include "io/vtk.hpp"
#include "mhd/derived.hpp"

using namespace yy;
using core::SerialYinYangSolver;
using yinyang::Panel;

namespace {

io::EquatorialSlice vorticity_slice(SerialYinYangSolver& s) {
  const SphericalGrid& g = s.grid();
  mhd::Workspace ws(g);
  static Field3 wy_r, wy_t, wy_p, wg_r, wg_t, wg_p;
  wy_r = Field3(g.Nr(), g.Nt(), g.Np());
  wy_t = wy_r;
  wy_p = wy_r;
  wg_r = wy_r;
  wg_t = wy_r;
  wg_p = wy_r;
  auto vort = [&](Panel p, Field3& wr, Field3& wt, Field3& wp) {
    mhd::velocity_and_temperature(s.panel(p), ws.vr, ws.vt, ws.vp, ws.T,
                                  g.interior().grown(1));
    fd::curl(g, ws.vr, ws.vt, ws.vp, wr, wt, wp, g.interior());
  };
  vort(Panel::yin, wy_r, wy_t, wy_p);
  vort(Panel::yang, wg_r, wg_t, wg_p);
  io::SphereSampler sampler(g, s.geometry());
  return io::sample_equatorial_z(sampler, {&wy_r, &wy_t, &wy_p},
                                 {&wg_r, &wg_t, &wg_p},
                                 s.config().shell.r_inner + 0.02,
                                 s.config().shell.r_outer - 0.02, 32, 240);
}

}  // namespace

int main(int argc, char** argv) {
  const int snapshots = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps_per_snapshot = argc > 2 ? std::atoi(argv[2]) : 120;

  core::SimulationConfig cfg;
  cfg.nr = 17;
  cfg.nt_core = 21;
  cfg.np_core = 61;
  cfg.eq.mu = 1.5e-3;
  cfg.eq.kappa = 1.5e-3;
  cfg.eq.eta = 1.5e-3;
  cfg.eq.g0 = 3.0;
  cfg.eq.omega = {0.0, 0.0, 15.0};
  cfg.thermal = {2.5, 1.0};
  cfg.ic.perturb_amp = 2e-2;

  std::printf("== Convection columns (paper Fig. 2, example scale) ============\n");
  SerialYinYangSolver solver(cfg);
  solver.initialize();

  for (int snap = 1; snap <= snapshots; ++snap) {
    for (int i = 0; i < steps_per_snapshot; ++i)
      solver.step(solver.stable_dt());
    io::EquatorialSlice slice = vorticity_slice(solver);
    const int cols = io::count_columns(slice);
    const std::string ppm = "columns_t" + std::to_string(snap) + ".ppm";
    io::write_equatorial_ppm(io::remove_zonal_mean(slice), ppm, 480);
    const mhd::EnergyBudget e = solver.energies();
    std::printf("t=%.4f steps=%lld KE=%.3e: %2d alternating columns "
                "(%d pairs) -> %s\n",
                solver.time(), solver.steps_taken(), e.kinetic, cols, cols / 2,
                ppm.c_str());
  }

  io::EquatorialSlice final_slice = vorticity_slice(solver);
  io::write_equatorial_csv(final_slice, "columns_final.csv");

  // 3-D export for ParaView/VisIt (the paper's visualization data path,
  // SV): one VTK file per panel; they overlay seamlessly.
  mhd::Workspace ws(solver.grid());
  for (Panel p : {Panel::yin, Panel::yang}) {
    mhd::velocity_and_temperature(solver.panel(p), ws.vr, ws.vt, ws.vp, ws.T,
                                  solver.grid().interior());
    io::write_vtk_panel(std::string("columns_") + name(p) + ".vtk",
                        solver.grid(), p,
                        {{"temperature", ws.T}, {"v_r", ws.vr}});
    std::printf("wrote columns_%s.vtk\n", name(p));
  }
  std::printf("\nfinal slice written to columns_final.csv; the PPM images show\n");
  std::printf("the paper's two-colour columnar pattern (red = cyclonic, blue =\n");
  std::printf("anti-cyclonic) growing from the random perturbation.\n");
  return 0;
}
