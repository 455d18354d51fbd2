/// List 1 reproduction — "An example of MPIPROGINF output."
/// On the Earth Simulator this report came from hardware counters; here
/// both sides are printed: the *emulated* report (the performance model
/// driven by the measured kernel profile, formatted like the paper's
/// listing for the flagship 4096-process run) and the *measured* one —
/// an instrumented serial run with per-phase performance counters
/// (obs/hwcounters) joined against the analytic flop charges in a
/// roofline attribution table.
#include <cstdio>

#include "common/flops.hpp"
#include "common/simd.hpp"
#include "core/serial_solver.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/kernel_profile.hpp"
#include "perf/proginf.hpp"
#include "perf/roofline.hpp"

using namespace yy;
using namespace yy::perf;

namespace {

/// Instrumented serial run: spans + counter deltas for a few steps.
obs::MetricsSummary measured_run(obs::CounterGroup& ctrs,
                                 std::uint64_t* global_flops, int steps = 4) {
  static obs::TraceRecorder rec;  // outlives the returned summary's spans
  obs::ScopedRankBind bind(rec, 0);
  obs::ScopedCounterBind cbind(ctrs);

  core::SimulationConfig cfg;
  cfg.nr = 17;
  cfg.nt_core = 13;
  cfg.np_core = 37;
  cfg.eq.omega = {0.0, 0.0, 5.0};
  core::SerialYinYangSolver solver(cfg);
  solver.initialize();
  const double dt = solver.stable_dt();
  flops::global_reset();
  for (int s = 0; s < steps; ++s) {
    obs::set_current_step(s);
    solver.step(dt);
  }
  *global_flops = flops::global_count();
  return obs::collect_metrics(rec);
}

}  // namespace

int main() {
  const KernelProfile prof = KernelProfile::measure();
  const EsPerformanceModel model(EarthSimulatorSpec{}, EsCostParams{},
                                 prof.flops_per_point_per_step);
  std::printf("== List 1: MPIPROGINF-style report (modeled) ===================\n\n");
  std::printf("%s\n", format_proginf(model, kTable2Configs[0]).c_str());

  obs::CounterGroup ctrs(obs::CounterGroup::config_from_env());
  std::uint64_t global_flops = 0;
  const obs::MetricsSummary m = measured_run(ctrs, &global_flops);
  std::printf("== Measured MPIPROGINF (instrumented serial run) ===============\n");
  std::printf("counter backend: %s\n\n", ctrs.backend_detail().c_str());
  std::printf("%s\n", format_measured_proginf(m).c_str());
  std::printf("%s\n",
              RooflineReport::build(m, ctrs.backend(), global_flops)
                  .format()
                  .c_str());

  // List 1's vector columns, closed measured: the ES model's modeled
  // Average Vector Length / Vector Operation Ratio against the lane
  // utilization the SIMD backend (the default, which `prof` ran)
  // actually achieved on this host.
  MeasuredLaneProfile lanes;
  lanes.width = prof.simd_width;
  lanes.avg_vector_length = prof.simd_avg_vector_length;
  lanes.vector_coverage = prof.simd_vector_coverage;
  std::printf("== Vector columns: modeled vs measured (simd backend, %s) ======\n\n",
              simd::compiled_isa());
  std::printf("%s\n",
              format_lane_report(model, kTable2Configs[0], lanes).c_str());
  return 0;
}
