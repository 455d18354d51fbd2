/// Records the perf-regression baselines the ROADMAP's "as fast as the
/// hardware allows" goal is measured against: runs the distributed
/// solver with telemetry plus the instrumented micro-kernel profile and
/// writes `BENCH_solver.json` / `BENCH_kernels.json` in the yy-bench-1
/// schema (bench_json.hpp).  `tools/bench_compare.py` diffs a fresh run
/// against the committed baselines with the tolerance bands recorded in
/// the files themselves; `tools/bench_baseline.sh` wraps both ends.
///
/// Usage: baseline_runner [--out DIR] [--steps N]
///
/// Pure-timing metrics (steps/sec, GFLOPS) carry wide tolerances so the
/// gate survives machine noise; structural metrics (flops per point,
/// spans per step, phase fractions) are tight — those only move when
/// the code changes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "common/flops.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/distributed_solver.hpp"
#include "core/serial_solver.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "perf/kernel_profile.hpp"
#include "perf/proginf.hpp"
#include "perf/roofline.hpp"
#include "resilience/sdc_audit.hpp"

#include "bench_json.hpp"

using namespace yy;

namespace {

constexpr int kPt = 1, kPp = 2;  // 2 panels x (1 x 2) = 4 ranks

/// The recorded solver layout.  Pinned to the reference RHS chain, the
/// backend BENCH_solver.json was recorded with, so compute_fraction and
/// es_pred_over_meas_compute keep their recorded meaning.
core::SimulationConfig bench_config() {
  core::SimulationConfig cfg;
  cfg.rhs_backend = mhd::RhsBackend::reference;
  cfg.nr = 13;
  cfg.nt_core = 17;
  cfg.np_core = 49;
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

obs::RunManifest manifest_for(const char* mode, int steps,
                              const core::SimulationConfig& cfg) {
  obs::RunManifest man = obs::RunManifest::current_build();
  man.app = "baseline_runner";
  man.mode = mode;
  man.world = 2 * kPt * kPp;
  man.pt = kPt;
  man.pp = kPp;
  man.nr = cfg.nr;
  man.nt_core = cfg.nt_core;
  man.np_core = cfg.np_core;
  man.extra.emplace_back("steps", std::to_string(steps));
  return man;
}

bool write_doc(const std::string& path, const std::string& name,
               const obs::RunManifest& man,
               const std::vector<bench::BenchMetric>& metrics) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  bench::write_bench_json(f, name, man, metrics);
  std::printf("wrote %s\n", path.c_str());
  return f.good();
}

/// Relative per-step cost of the SDC audit tier (DESIGN.md §15) on the
/// bench layout: the steady-state tax is the slab-CRC reference
/// refresh on audit-cadence steps plus the collective audit itself —
/// the same pattern ResilientRunner executes.  Measured additively
/// inside ONE run (audit seconds over pure stepping seconds) so
/// machine noise between two separate runs cannot masquerade as
/// overhead.
double sdc_audit_overhead(int steps) {
  const core::SimulationConfig cfg = bench_config();
  const int world = 2 * kPt * kPp;
  comm::Runtime rt(world);
  double overhead = 0.0;
  std::mutex mu;
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, kPt, kPp);
    solver.initialize();
    const double dt = solver.stable_dt();
    resilience::SdcPolicy pol;
    pol.audit_interval = 5;
    resilience::SdcAuditor auditor(pol);
    auditor.refresh(solver);
    WallTimer loop;
    double audit_s = 0.0;
    for (int i = 0; i < steps; ++i) {
      solver.step(dt);
      if (!auditor.due(solver.steps_taken())) continue;
      WallTimer t;
      auditor.refresh(solver);
      auditor.audit(solver);
      audit_s += t.seconds();
    }
    const double wall = loop.seconds();
    if (w.rank() == 0) {
      std::lock_guard lock(mu);
      overhead = wall > audit_s ? audit_s / (wall - audit_s) : 0.0;
    }
  });
  return overhead;
}

bool run_solver_bench(const std::string& out_dir, int steps) {
  const core::SimulationConfig cfg = bench_config();
  const int world = 2 * kPt * kPp;

  obs::TraceRecorder rec;
  obs::RunManifest man = manifest_for("solver", steps, cfg);
  obs::TelemetrySink sink(man);
  comm::Runtime rt(world);
  double loop_wall = 0.0;
  std::mutex mu;

  rt.run([&](comm::Communicator& w) {
    obs::ScopedRankBind bind(rec, w.rank());
    core::DistributedSolver solver(cfg, w, kPt, kPp);
    solver.initialize();
    const double dt = solver.stable_dt();
    obs::RankTelemetry tel(w, sink, {/*interval=*/5, /*ring=*/1024,
                                     /*span_budget=*/0});
    solver.attach_telemetry(&tel);
    WallTimer t;
    for (int i = 0; i < steps; ++i) solver.step(dt);
    tel.flush();
    if (w.rank() == 0) {
      std::lock_guard lock(mu);
      loop_wall = t.seconds();
    }
  });

  const obs::MetricsSummary m = obs::collect_metrics(rec, rt.traffic_total());
  const double traced = m.traced_seconds();
  const double comp = m.phase(obs::Phase::rhs).seconds +
                      m.phase(obs::Phase::boundary).seconds;

  double imbalance_sum = 0.0;
  for (const obs::StepAgg& a : sink.series()) imbalance_sum += a.imbalance;
  const double imbalance_mean =
      sink.series().empty() ? 1.0
                            : imbalance_sum / static_cast<double>(
                                                  sink.series().size());

  // es_model drift at this process count: the predicted/measured share
  // ratio for the compute bucket (1.0 = this machine splits the step
  // exactly as the ES model says it should).
  const perf::EsPerformanceModel model(perf::EarthSimulatorSpec{},
                                       perf::EsCostParams{}, 3000.0);
  const perf::RunConfig rc{world, cfg.nr, cfg.nt_core, cfg.np_core,
                           perf::Parallelization::flat_mpi};
  double pred_over_meas_compute = 0.0;
  for (const perf::PhaseDriftRow& row : perf::phase_drift(m, model, rc))
    if (row.label == "compute") pred_over_meas_compute = row.pred_over_meas;

  std::uint64_t span_count = 0;
  for (const obs::RankMetrics& rm : m.ranks)
    for (const obs::PhaseMetrics& pm : rm.phase) span_count += pm.count;

  std::vector<bench::BenchMetric> metrics;
  // Timing: wide bands, machine noise dominates.
  metrics.push_back({"steps_per_sec",
                     loop_wall > 0.0 ? steps / loop_wall : 0.0, 0.60, 0.0,
                     "min"});
  // Structure: tight bands, these only move when the code changes.
  metrics.push_back({"spans_per_step",
                     static_cast<double>(span_count) / steps, 0.0, 2.0,
                     "band"});
  metrics.push_back({"compute_fraction", traced > 0.0 ? comp / traced : 0.0,
                     0.0, 0.20, "band"});
  metrics.push_back({"halo_fraction",
                     traced > 0.0
                         ? m.phase(obs::Phase::halo_wait).seconds / traced
                         : 0.0,
                     0.0, 0.15, "band"});
  metrics.push_back({"overset_fraction",
                     traced > 0.0
                         ? m.phase(obs::Phase::overset_wait).seconds / traced
                         : 0.0,
                     0.0, 0.15, "band"});
  // Thread ranks timeslicing real cores make wall-clock imbalance
  // noisy; only a large sustained jump should fail.
  metrics.push_back({"imbalance_mean", imbalance_mean, 0.0, 2.0, "max"});
  metrics.push_back({"es_pred_over_meas_compute", pred_over_meas_compute,
                     0.75, 0.0, "band"});

  // SDC-audit overhead gate: the tol_abs pins the failure bound at 2%
  // (or recorded + 0.3 points once the recorded value nears the bound),
  // so the audit tier silently growing past its budget always fails.
  const double audit_tax = sdc_audit_overhead(steps);
  metrics.push_back({"sdc_audit_overhead", audit_tax, 0.0,
                     std::max(0.003, 0.02 - audit_tax), "max"});

  std::printf("solver: %.2f steps/s, imbalance %.2f, compute %.0f%%\n",
              steps / loop_wall, imbalance_mean,
              100.0 * (traced > 0.0 ? comp / traced : 0.0));
  std::printf("sdc audit overhead: %.2f%% of step time\n", 100.0 * audit_tax);
  return write_doc(out_dir + "/BENCH_solver.json", "solver", man, metrics);
}

bool run_kernel_bench(const std::string& out_dir) {
  // Three legs, same step: the SIMD lane sweep at the build's width is
  // the recorded fast path; the same sweep forced to width 1 (the
  // scalar leg, recorded under the names of the retired fused sweep it
  // replaces) and the reference chain are kept alongside so both
  // speedups are themselves gated metrics.
  const perf::KernelProfile ref =
      perf::KernelProfile::measure(17, 13, 37, mhd::RhsBackend::reference);
  simd::force_active_width(1);
  const perf::KernelProfile scalar =
      perf::KernelProfile::measure(17, 13, 37, mhd::RhsBackend::simd);
  simd::force_active_width(0);
  const perf::KernelProfile simd =
      perf::KernelProfile::measure(17, 13, 37, mhd::RhsBackend::simd);
  obs::RunManifest man = manifest_for("kernels", 1, bench_config());
  man.mode = "kernels";
  man.extra.emplace_back("rhs_backend", "simd");
  man.extra.emplace_back("simd_isa", simd::compiled_isa());
  man.extra.emplace_back("simd_width", std::to_string(simd.simd_width));

  // Measured-MPIPROGINF leg: an instrumented serial run with whatever
  // counter backend this host grants (perf_event where permitted, the
  // software charge counter otherwise — the manifest says which).
  obs::CounterGroup ctrs(obs::CounterGroup::config_from_env());
  man.counter_backend = obs::counter_backend_name(ctrs.backend());
  obs::TraceRecorder rec;
  std::uint64_t global_flops = 0;
  {
    obs::ScopedRankBind bind(rec, 0);
    obs::ScopedCounterBind cbind(ctrs);
    core::SimulationConfig cfg;
    cfg.rhs_backend = mhd::RhsBackend::reference;  // as recorded
    cfg.nr = 17;
    cfg.nt_core = 13;
    cfg.np_core = 37;
    core::SerialYinYangSolver solver(cfg);
    solver.initialize();
    const double dt = solver.stable_dt();
    solver.step(dt);  // warm-up, outside the charged window
    flops::global_reset();
    for (int s = 0; s < 3; ++s) {
      obs::set_current_step(s);
      solver.step(dt);
    }
    global_flops = flops::global_count();
  }
  const perf::RooflineReport roof = perf::RooflineReport::build(
      obs::collect_metrics(rec), ctrs.backend(), global_flops);

  const double speedup =
      scalar.seconds_per_point_per_step > 0.0
          ? ref.seconds_per_point_per_step / scalar.seconds_per_point_per_step
          : 0.0;

  std::vector<bench::BenchMetric> metrics;
  // flops/point is a property of the numerics, not the machine: it
  // moves only when the stencils change, so the band is tight.  Both
  // backends charge identically at every width (tests/mhd/
  // test_rhs_simd.cpp pins this), so one recorded value covers all legs.
  metrics.push_back(
      {"flops_per_point_per_step", scalar.flops_per_point_per_step, 0.02, 0.0,
       "band"});
  metrics.push_back(
      {"local_gflops", scalar.local_gflops, 0.60, 0.0, "min"});
  // Tightened from the pre-pencil 1.50: the pencil sweep both lowered
  // the value and cut its variance (no more whole-array scratch
  // traffic), so the band no longer needs to absorb cache noise.
  metrics.push_back({"seconds_per_point_per_step",
                     scalar.seconds_per_point_per_step, 0.80, 0.0, "max"});
  metrics.push_back({"seconds_per_point_per_step_reference",
                     ref.seconds_per_point_per_step, 1.50, 0.0, "max"});
  // The scalar-vs-reference gate: the tol_abs pins the lower bound at
  // 1.15, so the comparison fails whenever the scalar pencil sweep's
  // advantage drops below 15% regardless of the recorded value.
  metrics.push_back({"rhs_fused_speedup", speedup, 0.0,
                     std::max(0.05, speedup - 1.15), "min"});

  // The SIMD leg: same gate pattern against the width-1 scalar leg,
  // floor pinned at 1.3× — the lane packs must keep paying for
  // themselves or the comparison fails.
  const double simd_speedup =
      simd.seconds_per_point_per_step > 0.0
          ? scalar.seconds_per_point_per_step / simd.seconds_per_point_per_step
          : 0.0;
  metrics.push_back({"seconds_per_point_per_step_simd",
                     simd.seconds_per_point_per_step, 0.80, 0.0, "max"});
  metrics.push_back({"rhs_simd_speedup", simd_speedup, 0.0,
                     std::max(0.05, simd_speedup - 1.3), "min"});
  // Lane utilization of the timed SIMD step (analytic, so the bands are
  // tight): the measured counterpart of the ES model's vector columns.
  metrics.push_back({"simd_avg_vector_length", simd.simd_avg_vector_length,
                     0.02, 0.0, "band"});
  metrics.push_back({"simd_vector_coverage", simd.simd_vector_coverage, 0.02,
                     0.0, "band"});

  // Counter-derived gates.  The measured/charged flop ratio is exactly
  // 1.0 under the software backend (the measured column *is* the
  // charge) and must stay near 1.0 under perf_event — a real hardware
  // count drifting far from the analytic charge means either the
  // charge table or the kernels changed.
  const double flops_vs_charge =
      roof.total.charged_flops > 0
          ? static_cast<double>(roof.total.measured_flops()) /
                static_cast<double>(roof.total.charged_flops)
          : 0.0;
  metrics.push_back({"counter_flops_vs_charge", flops_vs_charge, 0.0, 0.25,
                     "band"});
  // Achieved GFlop/s over the traced phases: a timing metric, so a
  // wide min band like local_gflops.
  metrics.push_back({"counter_achieved_gflops", roof.total.achieved_gflops(),
                     0.60, 0.0, "min"});
  if (ctrs.backend() == obs::CounterBackend::perf_event) {
    // IPC floor: only meaningful (and only recorded) when real hardware
    // counters are available; the comparator skips metrics absent from
    // the baseline, so software-backend hosts stay consistent.
    metrics.push_back({"counter_ipc", roof.total.ipc(), 0.0,
                       std::max(0.25, 0.5 * roof.total.ipc()), "min"});
  }

  std::printf("counters: backend %s, measured/charged %.4f, %.2f GF/s\n",
              obs::counter_backend_name(ctrs.backend()), flops_vs_charge,
              roof.total.achieved_gflops());
  std::printf("%s", roof.format().c_str());
  std::printf("kernels: %.0f flops/point/step, %.2f GFLOPS local (w=1)\n",
              scalar.flops_per_point_per_step, scalar.local_gflops);
  std::printf("rhs backends: reference %.3e s/pt/step, simd w=1 %.3e (x%.2f)\n",
              ref.seconds_per_point_per_step,
              scalar.seconds_per_point_per_step, speedup);
  std::printf(
      "simd (%s, w=%d): %.3e s/pt/step (x%.2f over w=1), avl %.2f, "
      "coverage %.0f%%\n",
      simd::compiled_isa(), simd.simd_width, simd.seconds_per_point_per_step,
      simd_speedup, simd.simd_avg_vector_length,
      100.0 * simd.simd_vector_coverage);
  return write_doc(out_dir + "/BENCH_kernels.json", "kernels", man, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  int steps = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--out DIR] [--steps N]\n", argv[0]);
      return 2;
    }
  }
  if (steps < 1) steps = 1;

  std::printf("== Perf-regression baseline run ============================\n");
  const bool ok = run_solver_bench(out_dir, steps) && run_kernel_bench(out_dir);
  return ok ? 0 : 1;
}
