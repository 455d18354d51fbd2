#include "perf/kernel_profile.hpp"

#include "common/flops.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/serial_solver.hpp"

namespace yy::perf {

KernelProfile KernelProfile::measure(int nr, int nt_core, int np_core,
                                     mhd::RhsBackend backend) {
  core::SimulationConfig cfg;
  cfg.nr = nr;
  cfg.nt_core = nt_core;
  cfg.np_core = np_core;
  cfg.eq.omega = {0.0, 0.0, 5.0};
  cfg.rhs_backend = backend;
  core::SerialYinYangSolver solver(cfg);
  solver.initialize();
  const double dt = solver.stable_dt();
  solver.step(dt);  // warm-up (touch all pages, build caches)

  flops::global_reset();
  simd::lane_stats_reset();
  WallTimer timer;
  solver.step(dt);
  const double secs = timer.seconds();
  const auto counted = static_cast<double>(flops::global_count());
  const simd::LaneStats lanes = simd::lane_stats_total();

  const IndexBox in = solver.grid().interior();
  const double points = 2.0 * static_cast<double>(in.volume());

  KernelProfile prof;
  prof.flops_per_point_per_step = counted / points;
  prof.seconds_per_point_per_step = secs / points;
  prof.local_gflops = counted / secs / 1e9;
  if (backend == mhd::RhsBackend::simd) {
    prof.simd_width = simd::active_width();
    prof.simd_avg_vector_length = lanes.avg_vector_length();
    prof.simd_vector_coverage = lanes.vector_coverage();
  }
  return prof;
}

}  // namespace yy::perf
