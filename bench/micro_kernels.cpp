/// Microbenchmarks of the kernels behind every table/figure harness:
/// the FD operators (§III discretization), the overset interpolation
/// (§II), the full RHS, one RK4 step of the assembled solver, and the
/// lat-lon baseline step for comparison.  google-benchmark reports
/// per-iteration time; the Items/s counters are grid points processed.
#include <benchmark/benchmark.h>

#include "baseline/latlon_solver.hpp"
#include "common/simd.hpp"
#include "core/serial_solver.hpp"
#include "grid/fd_ops.hpp"
#include "mhd/rhs.hpp"
#include "yinyang/interpolator.hpp"

namespace {

using namespace yy;

SphericalGrid bench_grid(int n) {
  GridSpec s;
  s.nr = n;
  s.nt = n;
  s.np = n;
  s.r0 = 0.5;
  s.r1 = 1.0;
  s.t0 = 0.8;
  s.t1 = 2.3;
  s.p0 = -1.2;
  s.p1 = 1.2;
  s.ghost = 2;
  return SphericalGrid(s);
}

void BM_Laplacian(benchmark::State& state) {
  SphericalGrid g = bench_grid(static_cast<int>(state.range(0)));
  Field3 a(g.Nr(), g.Nt(), g.Np(), 1.0), out(g.Nr(), g.Nt(), g.Np());
  for (auto _ : state) {
    fd::laplacian(g, a, out, g.interior());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * g.interior().volume());
}
BENCHMARK(BM_Laplacian)->Arg(16)->Arg(32);

void BM_Curl(benchmark::State& state) {
  SphericalGrid g = bench_grid(static_cast<int>(state.range(0)));
  Field3 a(g.Nr(), g.Nt(), g.Np(), 1.0);
  Field3 cr(g.Nr(), g.Nt(), g.Np()), ct = cr, cp = cr;
  for (auto _ : state) {
    fd::curl(g, a, a, a, cr, ct, cp, g.interior());
    benchmark::DoNotOptimize(cr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.interior().volume());
}
BENCHMARK(BM_Curl)->Arg(16)->Arg(32);

void BM_DivVf(benchmark::State& state) {
  SphericalGrid g = bench_grid(static_cast<int>(state.range(0)));
  Field3 a(g.Nr(), g.Nt(), g.Np(), 1.0);
  Field3 r0(g.Nr(), g.Nt(), g.Np()), r1 = r0, r2 = r0;
  for (auto _ : state) {
    fd::div_vf(g, a, a, a, a, a, a, r0, r1, r2, g.interior());
    benchmark::DoNotOptimize(r0.data());
  }
  state.SetItemsProcessed(state.iterations() * g.interior().volume());
}
BENCHMARK(BM_DivVf)->Arg(16)->Arg(32);

void BM_OversetInterpolation(benchmark::State& state) {
  const auto geom = yinyang::ComponentGeometry::with_auto_margin(
      static_cast<int>(state.range(0)), 3 * static_cast<int>(state.range(0)) - 2);
  SphericalGrid g(geom.make_grid_spec(17, 0.4, 1.0));
  yinyang::OversetInterpolator interp(geom);
  Field3 donor(g.Nr(), g.Nt(), g.Np(), 1.0), recv(g.Nr(), g.Nt(), g.Np());
  for (auto _ : state) {
    interp.fill_scalar(g, donor, recv);
    benchmark::DoNotOptimize(recv.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(interp.entries().size()) * 17);
}
BENCHMARK(BM_OversetInterpolation)->Arg(17)->Arg(33);

void BM_MhdRhs(benchmark::State& state) {
  SphericalGrid g = bench_grid(static_cast<int>(state.range(0)));
  mhd::Fields s(g), rhs(g);
  mhd::Workspace ws(g);
  mhd::EquationParams eq;
  eq.omega = {0, 0, 8.0};
  for (auto _ : state) {
    mhd::compute_rhs(g, eq, s, rhs, ws, g.interior());
    benchmark::DoNotOptimize(rhs.rho.data());
  }
  state.SetItemsProcessed(state.iterations() * g.interior().volume());
}
BENCHMARK(BM_MhdRhs)->Arg(16)->Arg(24);

/// The production pencil sweep at `width` lanes (0 = the build's
/// active width; 1 = the scalar sweep of -DYY_SIMD=OFF builds).
void mhd_rhs_simd(benchmark::State& state, int width) {
  SphericalGrid g = bench_grid(static_cast<int>(state.range(0)));
  mhd::Fields s(g), rhs(g);
  mhd::PencilWorkspace pw;
  mhd::EquationParams eq;
  eq.omega = {0, 0, 8.0};
  const int w = width > 0 ? width : simd::active_width();
  for (auto _ : state) {
    mhd::compute_rhs_simd_width(w, g, eq, s, rhs, pw, g.interior());
    benchmark::DoNotOptimize(rhs.rho.data());
  }
  state.SetItemsProcessed(state.iterations() * g.interior().volume());
}
void BM_MhdRhsSimd(benchmark::State& state) { mhd_rhs_simd(state, 0); }
void BM_MhdRhsSimdW1(benchmark::State& state) { mhd_rhs_simd(state, 1); }
BENCHMARK(BM_MhdRhsSimd)->Arg(16)->Arg(24);
BENCHMARK(BM_MhdRhsSimdW1)->Arg(16)->Arg(24);

/// One serial Yin-Yang step on the default (simd) backend at `width`
/// lanes (0 = the build's active width), the backend BM_LatLonStep's
/// solver steps with, so the two per-point costs compare.
void yinyang_step(benchmark::State& state, int width) {
  core::SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = static_cast<int>(state.range(0));
  cfg.np_core = 3 * static_cast<int>(state.range(0)) - 2;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0, 0, 8.0};
  simd::force_active_width(width);
  core::SerialYinYangSolver solver(cfg);
  solver.initialize();
  const double dt = solver.stable_dt();
  for (auto _ : state) solver.step(dt);
  simd::force_active_width(0);
  state.SetItemsProcessed(state.iterations() * 2 *
                          solver.grid().interior().volume());
}
void BM_YinYangStep(benchmark::State& state) { yinyang_step(state, 0); }
void BM_YinYangStepW1(benchmark::State& state) { yinyang_step(state, 1); }
BENCHMARK(BM_YinYangStep)->Arg(13)->Arg(17);
BENCHMARK(BM_YinYangStepW1)->Arg(13)->Arg(17);

void BM_LatLonStep(benchmark::State& state) {
  baseline::LatLonConfig cfg;
  cfg.nr = 13;
  cfg.nt = static_cast<int>(state.range(0));
  cfg.np = 2 * static_cast<int>(state.range(0));
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0, 0, 8.0};
  baseline::LatLonSolver solver(cfg);
  solver.initialize();
  const double dt = solver.stable_dt();
  for (auto _ : state) solver.step(dt);
  state.SetItemsProcessed(state.iterations() * solver.grid().interior().volume());
}
BENCHMARK(BM_LatLonStep)->Arg(24)->Arg(32);

}  // namespace
