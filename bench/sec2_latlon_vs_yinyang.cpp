/// §II reproduction — the pole problem: "Due to the existence of the
/// coordinate singularity and grid convergence near the poles of the
/// latitude-longitude grid, we had to take special care at the poles
/// and this inevitably degraded the numerical efficiency".
///
/// Quantifies, at matched angular resolution, what the Yin-Yang grid
/// buys relative to the baseline lat-lon code this repository also
/// implements: the CFL timestep penalty from converging meridians, the
/// fraction of crowded columns, the grid-point budget, and the wasted
/// work — against the Yin-Yang grid's fixed ~6% overlap cost.
#include <cstdio>

#include "baseline/latlon_solver.hpp"
#include "common/timer.hpp"
#include "core/serial_solver.hpp"

using namespace yy;

int main() {
  std::printf("== Section II: lat-lon pole problem vs Yin-Yang =================\n\n");
  std::printf("%-14s %-12s %-12s %-12s %-12s %-10s\n", "resolution",
              "dt(latlon)", "dt(yinyang)", "dt ratio", "crowded", "pts ratio");

  for (int nt_ll : {24, 36, 48, 72}) {
    baseline::LatLonConfig lc;
    lc.nr = 9;
    lc.nt = nt_ll;
    lc.np = 2 * nt_ll;
    lc.eq.g0 = 2.0;
    lc.eq.omega = {0, 0, 8.0};
    baseline::LatLonSolver latlon(lc);
    latlon.initialize();
    const double dt_ll = latlon.stable_dt();

    // Yin-Yang at the same angular spacing: dθ = π/nt_ll.
    core::SimulationConfig yc;
    yc.nr = lc.nr;
    yc.nt_core = nt_ll / 2 + 1;
    yc.np_core = 3 * (nt_ll / 2) + 1;
    yc.eq = lc.eq;
    core::SerialYinYangSolver yy_solver(yc);
    yy_solver.initialize();
    const double dt_yy = yy_solver.stable_dt();

    const long long pts_ll = static_cast<long long>(lc.nr) * lc.nt * lc.np;
    const auto& geom = yy_solver.geometry();
    const long long pts_yy =
        2ll * yc.nr * geom.nt() * geom.np();
    char res[24];
    std::snprintf(res, sizeof res, "%dx%d", nt_ll, 2 * nt_ll);
    std::printf("%-14s %-12.2e %-12.2e %-12.2f %-11.0f%% %-10.2f\n", res, dt_ll,
                dt_yy, dt_yy / dt_ll, 100.0 * latlon.pole_crowding_fraction(),
                static_cast<double>(pts_yy) / pts_ll);
  }

  std::printf("\nThe dt ratio grows with resolution (the meridian spacing\n"
              "r*sin(theta)*dphi collapses near the poles), so the lat-lon\n"
              "code pays ever more steps per unit simulated time; the\n"
              "Yin-Yang grid also needs ~20%% fewer points at matched angular\n"
              "resolution, and its only overhead is the ~6%% overlap.\n\n");

  // Work-per-unit-time comparison at one resolution: steps/second of
  // wall clock x dt = simulated time per second.
  baseline::LatLonConfig lc;
  lc.nr = 9;
  lc.nt = 32;
  lc.np = 64;
  lc.eq.g0 = 2.0;
  lc.eq.omega = {0, 0, 8.0};
  baseline::LatLonSolver latlon(lc);
  latlon.initialize();
  core::SimulationConfig yc;
  yc.nr = 9;
  yc.nt_core = 17;
  yc.np_core = 49;
  yc.eq = lc.eq;
  core::SerialYinYangSolver yys(yc);
  yys.initialize();

  // Each step at its CFL-stable dt; both solvers start from t = 0.
  WallTimer t1;
  for (int i = 0; i < 30; ++i) latlon.step(latlon.stable_dt());
  const double sim_ll = latlon.time();
  const double wall_ll = t1.seconds();
  WallTimer t2;
  for (int i = 0; i < 30; ++i) yys.step(yys.stable_dt());
  const double sim_yy = yys.time();
  const double wall_yy = t2.seconds();
  std::printf("simulated-time throughput (30 steps each):\n");
  std::printf("  lat-lon : %.3e simulated / %.2fs wall = %.3e /s\n", sim_ll,
              wall_ll, sim_ll / wall_ll);
  std::printf("  yin-yang: %.3e simulated / %.2fs wall = %.3e /s  (%.1fx)\n",
              sim_yy, wall_yy, sim_yy / wall_yy,
              (sim_yy / wall_yy) / (sim_ll / wall_ll));
  return 0;
}
