/// The full flat-MPI structure of paper §IV in action: a world of
/// 2 x pt x pp ranks (threads standing in for the Earth Simulator's
/// processes) runs the distributed yycore solver — panel split, 2-D
/// cartesian halo exchange and inter-panel overset interpolation — and
/// the result is verified against the single-process reference solver.
///
/// Every rank records per-phase spans (obs/trace.hpp); the run emits a
/// chrome://tracing timeline (yy_trace.json), a metrics CSV/JSON, and a
/// measured List-1-style report cross-checked against the Earth
/// Simulator performance model's predicted phase split.
///
/// Usage: parallel_dynamo [pt pp steps [mode]] [--heartbeat N] [--overlap]
///                        [--counters]
///                        [--chaos rank-death:<step>|bitflip:<step>[:<cadence>]]
///        (default 2 x 2, 10 steps)
///
/// mode selects the run-control layer:
///   plain      step loop, no checkpointing (default, the seed behaviour)
///   resilient  ResilientRunner: periodic checkpoints + health monitoring
///   faulty     resilient + an injected overset-message drop and a torn
///              checkpoint commit — demonstrates automatic rewind; the
///              final state still matches the serial reference exactly.
///
/// --heartbeat N turns on in-run telemetry (obs/telemetry.hpp): every N
/// steps the ranks gather their per-step phase timings to rank 0, which
/// prints one rolling "[telemetry]" line per step (per-phase mean/max,
/// imbalance ratio, straggler rank) and, at exit, writes the full
/// manifest-stamped time series as telemetry.csv / telemetry.json.
///
/// --overlap switches the RK4 stage fills to the overlapped mode
/// (DESIGN.md §10): halo/overset exchanges are posted, the interior of
/// the patch is swept while the messages are in flight, and only the
/// ghost-dependent rim waits.  Bitwise-identical to the synchronous
/// path (tests/core/test_overlap_equivalence.cpp), so the serial
/// cross-check below still matches exactly.  Set YY_THREADS to also
/// thread the interior sweep and stage updates.
///
/// The RHS runs on the configuration's backend — the production
/// pencil sweep (DESIGN.md §11), its radial inner loops in SIMD packs
/// at the build's native width (YY_SIMD=scalar|1|2|4|8 overrides it).
/// The banner names the backend and the manifest records it with the
/// lane width and ISA.
///
/// --counters samples per-phase performance counters on every rank
/// (obs/hwcounters.hpp): each rank thread opens its own CounterGroup —
/// real perf_event hardware counters where the kernel permits, the
/// software charge counter otherwise — and every span then carries a
/// counter delta.  The backend actually used is stamped into the
/// manifest (`counter_backend`) and all exports; the run ends with a
/// roofline attribution table (perf/roofline.hpp) joining the measured
/// counters against the analytic flop charges.  Environment:
/// YY_COUNTERS=software forces the fallback, YY_COUNTER_FPOPS_RAW=<ev>
/// opens a raw FP-ops event on microarchitectures that have one.
///
/// --chaos rank-death:<step> kills world rank 1 after it completes
/// step <step>: the rank stops responding, the survivors detect the
/// silence, shrink the world around it and restore its patch from its
/// buddy's diskless replica (DESIGN.md §12), then finish the run on
/// one rank fewer.  Forces resilient mode; the serial cross-check
/// still matches exactly because the restored trajectory is bitwise
/// the shrunk-layout trajectory.  Needs at least 2 ranks per panel so
/// each panel keeps a survivor (the default 2 x 2 works).
///
/// --chaos bitflip:<step>[:<cadence>] XORs one mantissa bit of one A_r
/// value in world rank 1's resident state after it completes step
/// <step> — silent data corruption no magnitude probe can see.  Forces
/// resilient mode with the SDC audit on (DESIGN.md §15, cadence
/// default 4; <step> must be a multiple of the cadence so the flip
/// lands on an audited boundary): the slab-CRC sweep catches the flip
/// at the next audit, every rank restores its patch from the diskless
/// buddy images and the short window since the last clean audit is
/// replayed.  The serial cross-check still matches exactly because the
/// flip never reaches a committed snapshot.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/distributed_solver.hpp"
#include "core/serial_solver.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/hwcounters.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "perf/proginf.hpp"
#include "perf/roofline.hpp"
#include "resilience/resilient_runner.hpp"

using namespace yy;
using yinyang::Panel;

int main(int argc, char** argv) {
  int heartbeat = 0;
  bool overlap = false;
  bool counters = false;
  long long chaos_death_step = -1;
  long long chaos_flip_step = -1;
  long long chaos_flip_cadence = 4;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--heartbeat") == 0 && i + 1 < argc) {
      heartbeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--overlap") == 0) {
      overlap = true;
    } else if (std::strcmp(argv[i], "--counters") == 0) {
      counters = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0 && i + 1 < argc) {
      const char* spec = argv[++i];
      if (std::strncmp(spec, "rank-death:", 11) == 0) {
        chaos_death_step = std::atoll(spec + 11);
      } else if (std::strncmp(spec, "bitflip:", 8) == 0) {
        chaos_flip_step = std::atoll(spec + 8);
        if (const char* colon = std::strchr(spec + 8, ':'))
          chaos_flip_cadence = std::atoll(colon + 1);
      }
      if (chaos_death_step <= 0 && chaos_flip_step <= 0) {
        std::fprintf(stderr,
                     "bad chaos spec '%s' (rank-death:<step> | "
                     "bitflip:<step>[:<cadence>])\n",
                     spec);
        return 1;
      }
      if (chaos_flip_step > 0 &&
          (chaos_flip_cadence <= 0 ||
           chaos_flip_step % chaos_flip_cadence != 0)) {
        std::fprintf(stderr,
                     "bad chaos spec '%s': bitflip step must be a positive "
                     "multiple of the audit cadence (%lld)\n",
                     spec, chaos_flip_cadence);
        return 1;
      }
    } else {
      pos.push_back(argv[i]);
    }
  }
  const int pt = pos.size() > 0 ? std::atoi(pos[0]) : 2;
  const int pp = pos.size() > 1 ? std::atoi(pos[1]) : 2;
  const int steps = pos.size() > 2 ? std::atoi(pos[2]) : 10;
  std::string mode = pos.size() > 3 ? pos[3] : "plain";
  if (mode != "plain" && mode != "resilient" && mode != "faulty") {
    std::fprintf(stderr, "unknown mode '%s' (plain|resilient|faulty)\n",
                 mode.c_str());
    return 1;
  }
  if (chaos_death_step > 0) {
    if (mode == "plain") mode = "resilient";  // survival needs the runner
    if (heartbeat > 0) {
      std::printf("note: --chaos disables --heartbeat (the telemetry "
                  "window cannot span a dead rank)\n");
      heartbeat = 0;
    }
  }
  if (chaos_flip_step > 0 && mode == "plain")
    mode = "resilient";  // the SDC audit lives in the runner

  core::SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = 17;
  cfg.np_core = 49;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0, 0, 10.0};
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  cfg.overlap = overlap;

  // What the RHS runs on: the config's backend (the pencil sweep), its
  // lane width and ISA.
  const int simd_width = simd::active_width();

  const int world = 2 * pt * pp;
  std::printf(
      "== Distributed yycore: %d ranks = 2 panels x (%d x %d)%s  [rhs: %s, "
      "%d lane%s, %s] ====\n\n",
      world, pt, pp, overlap ? "  [overlapped]" : "",
      mhd::backend_name(cfg.rhs_backend), simd_width,
      simd_width == 1 ? "" : "s", simd::compiled_isa());

  mhd::EnergyBudget dist_energy;
  double dist_dt = 0.0;
  resilience::RunReport report;
  std::mutex mu;
  obs::TraceRecorder rec;
  comm::Runtime rt(world);

  // Run identity, stamped into every export (and shown live when the
  // heartbeat is on).
  obs::RunManifest man = obs::RunManifest::current_build();
  man.app = "parallel_dynamo";
  man.mode = mode;
  man.world = world;
  man.pt = pt;
  man.pp = pp;
  man.nr = cfg.nr;
  man.nt_core = cfg.nt_core;
  man.np_core = cfg.np_core;
  man.heartbeat_interval = heartbeat;
  // Probe which counter backend this host grants before freezing the
  // manifest: the rank threads open identical groups below, so the
  // probe's outcome is the run's (honest degradation, DESIGN.md §13).
  obs::CounterBackend ctr_backend = obs::CounterBackend::off;
  std::string ctr_detail = "off";
  if (counters) {
    obs::CounterGroup probe(obs::CounterGroup::config_from_env());
    ctr_backend = probe.backend();
    ctr_detail = probe.backend_detail();
  }
  man.counter_backend = obs::counter_backend_name(ctr_backend);
  man.extra.emplace_back("steps", std::to_string(steps));
  man.extra.emplace_back("overlap", overlap ? "1" : "0");
  man.extra.emplace_back("rhs_backend", mhd::backend_name(cfg.rhs_backend));
  man.extra.emplace_back("simd_width", std::to_string(simd_width));
  man.extra.emplace_back("simd_isa", simd::compiled_isa());
  if (chaos_death_step > 0)
    man.extra.emplace_back("chaos",
                           "rank-death:" + std::to_string(chaos_death_step));
  if (chaos_flip_step > 0)
    man.extra.emplace_back("chaos",
                           "bitflip:" + std::to_string(chaos_flip_step) + ":" +
                               std::to_string(chaos_flip_cadence));
  obs::TelemetrySink sink(man, heartbeat > 0 ? &std::cout : nullptr);

  std::shared_ptr<comm::FaultPlan> plan;
  if (mode == "faulty") {
    // Provoke the recovery machinery on purpose: one overset envelope
    // is dropped in the last quarter of the run and the mid-run
    // checkpoint commit is torn on rank 0.  The runner rewinds to the
    // newest CRC-valid set and re-runs the tail — bit-exactly.
    plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::Rule drop;
    drop.kind = comm::FaultPlan::Kind::drop;
    drop.tag = 200;  // overset interpolation traffic
    drop.min_step = steps > 1 ? steps * 3 / 4 : 1;
    plan->add_rule(drop);
    plan->schedule_io_fault(std::max(1, steps / 2), /*world_rank=*/0,
                            comm::FaultPlan::IoFault::torn);
  }
  constexpr int kChaosVictim = 1;
  if (chaos_death_step > 0) {
    if (!plan) plan = std::make_shared<comm::FaultPlan>();
    plan->schedule_rank_death(kChaosVictim, chaos_death_step);
    std::printf("chaos: world rank %d stops responding after step %lld; "
                "the survivors shrink around it\n\n",
                kChaosVictim, chaos_death_step);
  }
  if (chaos_flip_step > 0) {
    if (!plan) plan = std::make_shared<comm::FaultPlan>();
    comm::FaultPlan::ComputeFault flip;
    flip.field = 5;  // A_r
    flip.elem = 1234;
    flip.byte = 0;   // low mantissa bit: invisible to magnitude probes
    flip.mask = 0x01;
    plan->schedule_bitflip(kChaosVictim, chaos_flip_step, flip);
    std::printf("chaos: one A_r mantissa bit flips in memory on world "
                "rank %d after step %lld (audit cadence %lld)\n\n",
                kChaosVictim, chaos_flip_step, chaos_flip_cadence);
  }
  if (plan) rt.install_fault_plan(plan);

  WallTimer timer;
  rt.run([&](comm::Communicator& w) {
    obs::ScopedRankBind bind(rec, w.rank());
    // Counter groups are per-thread (perf_event counts the opening
    // thread only), so each rank opens its own and binds it for the
    // run; every span this rank records then carries a counter delta.
    std::unique_ptr<obs::CounterGroup> ctrs;
    std::unique_ptr<obs::ScopedCounterBind> cbind;
    if (counters) {
      ctrs = std::make_unique<obs::CounterGroup>(
          obs::CounterGroup::config_from_env());
      cbind = std::make_unique<obs::ScopedCounterBind>(*ctrs);
    }
    core::DistributedSolver solver(cfg, w, pt, pp);
    solver.initialize();
    const double dt = solver.stable_dt();
    std::unique_ptr<obs::RankTelemetry> tel;
    if (heartbeat > 0) {
      obs::TelemetryConfig tc;
      tc.interval = heartbeat;
      tel = std::make_unique<obs::RankTelemetry>(w, sink, tc);
      solver.attach_telemetry(tel.get());
    }
    resilience::RunReport rep;
    if (mode == "plain") {
      for (int i = 0; i < steps; ++i) solver.step(dt);
      rep.completed = true;
      rep.final_step = steps;
      rep.final_dt = dt;
    } else {
      resilience::RunPolicy policy;
      policy.store = {"yy_checkpoints", "dynamo", 2};
      policy.checkpoint_interval = std::max(1, steps / 4);
      policy.take_deadline_ms = 5000;
      if (chaos_flip_step > 0)
        policy.sdc.audit_interval = chaos_flip_cadence;
      resilience::ResilientRunner runner(solver, policy);
      rep = runner.run(steps, dt);
    }
    // A rank killed by the chaos schedule has retired from the fabric:
    // it must not join the survivors' post-run collectives.
    const bool i_died = !rep.completed &&
                        rep.failure.find("rank death") != std::string::npos;
    if (tel && !i_died) tel->flush();  // collective: drains any window
    if (!i_died) {
      const mhd::EnergyBudget e = solver.energies();
      if (w.rank() == 0) {
        std::lock_guard lock(mu);
        dist_energy = e;
        dist_dt = rep.final_dt;
        report = rep;
      }
    }
  });
  const double wall = timer.seconds();
  const auto traffic = rt.traffic_total();

  std::printf("%d RK4 steps on %d ranks: %.2f s wall  [mode: %s]\n", steps,
              world, wall, mode.c_str());
  if (mode != "plain") {
    std::printf("run control: %s after %lld steps, %d recoveries, "
                "%d checkpoints (dir yy_checkpoints/)\n",
                report.completed ? "completed" : "FAILED", report.final_step,
                report.recoveries, report.checkpoints_saved);
    if (report.shrinks > 0)
      std::printf("rank loss survived: %d shrink(s), world %d -> %d "
                  "surviving ranks\n",
                  report.shrinks, world, report.final_world_size);
    if (report.sdc_restores > 0)
      std::printf("sdc defense: bit flip detected and repaired from buddy "
                  "replicas (%d restore(s), no disk rewind)\n",
                  report.sdc_restores);
    if (!report.failure.empty())
      std::printf("failure: %s\n", report.failure.c_str());
  }
  std::printf("message traffic: %llu messages, %.2f MB\n",
              static_cast<unsigned long long>(traffic.messages),
              traffic.bytes / 1048576.0);
  std::printf("global energies: KE %.5e  ME %.5e  mass %.6f\n\n",
              dist_energy.kinetic, dist_energy.magnetic, dist_energy.mass);

  // Cross-check against the serial reference.
  core::SerialYinYangSolver ref(cfg);
  ref.initialize();
  for (int i = 0; i < steps; ++i) ref.step(dist_dt);
  const mhd::EnergyBudget re = ref.energies();
  const double rel =
      std::abs(re.kinetic - dist_energy.kinetic) / (re.kinetic + 1e-30);
  std::printf("serial reference KE %.5e -> relative difference %.2e %s\n",
              re.kinetic, rel,
              rel < 1e-9 ? "(trajectories match)" : "(MISMATCH!)");

  // ---- Observability exports: timeline, metrics, phase cross-check.
  // All artifacts are stamped with the run manifest so they remain
  // self-describing once they leave this directory.
  const obs::MetricsSummary metrics = obs::collect_metrics(rec, traffic);
  if (obs::write_chrome_trace_file(rec, "yy_trace.json", man))
    std::printf("\nwrote yy_trace.json  (open in chrome://tracing or "
                "ui.perfetto.dev)\n");
  {
    std::ofstream csv("yy_metrics.csv");
    obs::write_metrics_csv(metrics, csv, man);
    std::ofstream js("yy_metrics.json");
    obs::write_metrics_json(metrics, js, man);
    std::printf("wrote yy_metrics.csv, yy_metrics.json\n");
  }
  if (heartbeat > 0) {
    if (sink.write_files("telemetry.csv", "telemetry.json"))
      std::printf("wrote telemetry.csv, telemetry.json  (%zu aggregated "
                  "steps)\n",
                  sink.series().size());
  }
  for (int e = 0; e < obs::kNumEvents; ++e)
    if (metrics.events[static_cast<std::size_t>(e)] != 0)
      std::printf("event %-22s %llu\n",
                  obs::event_name(static_cast<obs::Event>(e)),
                  static_cast<unsigned long long>(
                      metrics.events[static_cast<std::size_t>(e)]));
  std::printf("\n");

  std::printf("%s\n", perf::format_measured_proginf(metrics).c_str());

  // Cross-check the measured phase split against the ES model run at
  // the same process count and per-panel grid.
  const perf::EsPerformanceModel model(perf::EarthSimulatorSpec{},
                                       perf::EsCostParams{}, 3000.0);
  const perf::RunConfig rc{world, cfg.nr, cfg.nt_core, cfg.np_core,
                           perf::Parallelization::flat_mpi};
  std::printf("%s\n", perf::format_phase_report(metrics, model, rc).c_str());

  if (counters) {
    std::printf("counter backend: %s\n", ctr_detail.c_str());
    std::printf("%s\n",
                perf::RooflineReport::build(metrics, ctr_backend)
                    .format()
                    .c_str());
  }
  return 0;
}
