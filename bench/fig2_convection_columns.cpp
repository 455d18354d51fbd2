/// Fig. 2 reproduction (fast variant) — "Thermal convection structure…
/// Columnar convection cells viewed in the equatorial plane.  Two
/// colors indicate cyclonic and anti-cyclonic convection columns."
///
/// Runs a scaled-down rotating dynamo from a random perturbation past
/// convective onset, extracts the equatorial-plane z-vorticity and
/// verifies the figure's qualitative content: several alternating
/// cyclonic/anti-cyclonic columns.  Writes fig2_equatorial.ppm (the
/// two-colour disk view) and fig2_equatorial.csv.  The slower
/// examples/convection_columns drives the same pipeline at higher
/// resolution.
#include <algorithm>
#include <cstdio>

#include "core/serial_solver.hpp"
#include "grid/fd_ops.hpp"
#include "io/slice.hpp"
#include "io/spectrum.hpp"
#include "mhd/derived.hpp"

using namespace yy;
using core::SerialYinYangSolver;
using core::SimulationConfig;
using yinyang::Panel;

int main() {
  SimulationConfig cfg;
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
  cfg.ic.seed_b_amp = 1e-4;

  std::printf("== Fig. 2: columnar convection cells (fast variant) ============\n");
  SerialYinYangSolver s(cfg);
  s.initialize();
  for (int i = 0; i < 5; ++i) s.step(s.stable_dt());
  const double ke0 = s.energies().kinetic;  // just after onset of motion

  const int bursts = 6, steps_per_burst = 50;
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < steps_per_burst; ++i) s.step(s.stable_dt());
    const auto e = s.energies();
    std::printf("  t=%.4f steps=%lld KE=%.3e ME=%.3e\n", s.time(),
                s.steps_taken(), e.kinetic, e.magnetic);
  }
  const double ke1 = s.energies().kinetic;
  std::printf("kinetic energy grew %.1fx beyond the early perturbation level\n",
              ke1 / ke0);

  // Vorticity ω = ∇×v on both panels, then the equatorial ω_z map.
  const SphericalGrid& g = s.grid();
  mhd::Workspace ws(g);
  Field3 wy_r(g.Nr(), g.Nt(), g.Np()), wy_t = wy_r, wy_p = wy_r;
  Field3 wg_r = wy_r, wg_t = wy_r, wg_p = wy_r;
  auto vorticity = [&](Panel p, Field3& wr, Field3& wt, Field3& wp) {
    const mhd::Fields& f = s.panel(p);
    mhd::velocity_and_temperature(f, ws.vr, ws.vt, ws.vp, ws.T,
                                  g.interior().grown(1));
    fd::curl(g, ws.vr, ws.vt, ws.vp, wr, wt, wp, g.interior());
  };
  vorticity(Panel::yin, wy_r, wy_t, wy_p);
  vorticity(Panel::yang, wg_r, wg_t, wg_p);

  io::SphereSampler sampler(g, s.geometry());
  const io::EquatorialSlice slice = io::sample_equatorial_z(
      sampler, {&wy_r, &wy_t, &wy_p}, {&wg_r, &wg_t, &wg_p},
      cfg.shell.r_inner + 0.02, cfg.shell.r_outer - 0.02, 24, 180);

  const int sign_columns = io::count_columns(slice);
  const int spectral_columns = io::spectral_column_count(slice);
  const auto spectrum = io::slice_spectrum(slice, 10);
  std::printf("\nequatorial ring at mid-depth: %d sign-alternations, dominant\n",
              sign_columns);
  std::printf("azimuthal wavenumber m = %d -> %d columns (%d cyclonic/anti-\n",
              spectral_columns / 2, spectral_columns, spectral_columns / 2);
  std::printf("cyclonic pairs); power(m)/power(0): ");
  for (int m = 1; m <= 6; ++m)
    std::printf("m%d=%.2f ", m,
                spectrum[0] > 0 ? spectrum[m] / spectrum[0] : spectrum[m]);
  const int columns = std::max(sign_columns, spectral_columns);
  std::printf("\npaper's Fig. 2 shows a set of such columnar cells; shape check:"
              " %s\n", columns >= 4 ? "PASS (>= 2 pairs)" : "WEAK (run longer)");

  io::write_equatorial_ppm(io::remove_zonal_mean(slice),
                           "fig2_equatorial.ppm", 400);
  io::write_equatorial_csv(slice, "fig2_equatorial.csv");
  std::printf("wrote fig2_equatorial.ppm / fig2_equatorial.csv\n");
  return 0;
}
