/// Overhead proof for the tracing layer: runs the serial solver with
/// and without a bound TraceRecorder and reports the relative cost of
/// span recording.  The acceptance bar is <2% when tracing is enabled;
/// building with -DYY_TRACE_LEVEL=0 compiles every YY_TRACE_SCOPE to a
/// no-op object, making the overhead exactly zero by construction.
///
/// A third leg measures counter sampling (obs/hwcounters): tracing plus
/// a bound CounterGroup, so every PhaseScope additionally samples the
/// backend twice.  The same <2% bar applies to the counter increment
/// over plain tracing.  Exits 1 when either bar fails.
#include <algorithm>
#include <cstddef>
#include <cstdio>

#include "common/timer.hpp"
#include "core/serial_solver.hpp"
#include "obs/hwcounters.hpp"
#include "obs/trace.hpp"

using namespace yy;

namespace {

core::SimulationConfig bench_config() {
  core::SimulationConfig cfg;
  cfg.nr = 15;
  cfg.nt_core = 19;
  cfg.np_core = 55;
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

/// Seconds for `steps` RK4 steps; records into `rec` when non-null and
/// additionally samples counters per span when `ctrs` is non-null.
double run_once(obs::TraceRecorder* rec, obs::CounterGroup* ctrs, int steps) {
  core::SerialYinYangSolver solver(bench_config());
  if (rec != nullptr) {
    obs::ScopedRankBind bind(*rec, 0);
    if (ctrs != nullptr) {
      obs::ScopedCounterBind cbind(*ctrs);
      solver.initialize();
      const double dt = solver.stable_dt();
      WallTimer t;
      for (int i = 0; i < steps; ++i) solver.step(dt);
      return t.seconds();
    }
    solver.initialize();
    const double dt = solver.stable_dt();
    WallTimer t;
    for (int i = 0; i < steps; ++i) solver.step(dt);
    return t.seconds();
  }
  solver.initialize();
  const double dt = solver.stable_dt();
  WallTimer t;
  for (int i = 0; i < steps; ++i) solver.step(dt);
  return t.seconds();
}

}  // namespace

int main() {
  const int steps = 30;
  const int reps = 5;

  std::printf("== Tracing overhead (YY_TRACE_LEVEL=%d) =====================\n",
              YY_TRACE_LEVEL);
  std::printf("serial solver, %d RK4 steps, best of %d reps each way\n\n",
              steps, reps);

  // Warm-up: populate caches and fault in the working set once.
  run_once(nullptr, nullptr, 2);

  obs::CounterGroup ctrs(obs::CounterGroup::config_from_env());
  double best_off = 1e30, best_on = 1e30, best_ctr = 1e30;
  std::size_t spans = 0;
  for (int r = 0; r < reps; ++r) {
    best_off = std::min(best_off, run_once(nullptr, nullptr, steps));
    obs::TraceRecorder rec;
    best_on = std::min(best_on, run_once(&rec, nullptr, steps));
    const auto traces = rec.traces();
    spans = traces.empty() ? 0 : traces[0]->spans().size();
    obs::TraceRecorder rec_ctr;
    best_ctr = std::min(best_ctr, run_once(&rec_ctr, &ctrs, steps));
  }

  const double overhead = best_on / best_off - 1.0;
  const double ctr_overhead = best_ctr / best_on - 1.0;
  std::printf("untraced          : %9.4f s\n", best_off);
  std::printf("traced            : %9.4f s   (%zu spans recorded per run)\n",
              best_on, spans);
  std::printf("traced + counters : %9.4f s   (backend: %s)\n", best_ctr,
              obs::counter_backend_name(ctrs.backend()));
  std::printf("trace overhead    : %+8.2f %%   (acceptance: < 2%% enabled;\n",
              overhead * 100.0);
  std::printf("            0%% with -DYY_TRACE_LEVEL=0 — the macros then\n"
              "            expand to NullPhaseScope and vanish entirely)\n");
  std::printf("counter overhead  : %+8.2f %%   over plain tracing "
              "(acceptance: < 2%%)\n",
              ctr_overhead * 100.0);

#if YY_TRACE_LEVEL
  const bool pass = overhead < 0.02 && ctr_overhead < 0.02;
#else
  // Compiled out: all runs execute the identical instruction stream
  // (counter binding without scopes never samples).
  const bool pass = true;
#endif

  std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
