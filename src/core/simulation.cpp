#include "core/simulation.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace yy::core {

RunSummary Simulation::run(const RunControl& ctl,
                           const SnapshotFn& on_snapshot) {
  YY_REQUIRE(ctl.t_end > solver_->time());
  YY_REQUIRE(ctl.max_dt_growth > 1.0);
  RunSummary sum;
  WallTimer timer;
  double dt_prev = 0.0;
  double next_snapshot =
      ctl.snapshot_interval > 0.0
          ? solver_->time() + ctl.snapshot_interval
          : 1e300;

  while (solver_->time() < ctl.t_end) {
    if (sum.steps >= ctl.max_steps) {
      sum.hit_step_limit = true;
      break;
    }
    if (timer.seconds() > ctl.max_wall_seconds) {
      sum.hit_wall_limit = true;
      break;
    }
    double dt = solver_->stable_dt();
    if (!std::isfinite(dt)) {  // a NaN state: stepping would make time NaN
      sum.diverged = true;
      break;
    }
    if (dt_prev > 0.0) dt = std::min(dt, dt_prev * ctl.max_dt_growth);
    dt = std::min(dt, ctl.t_end - solver_->time());  // land exactly on t_end
    solver_->step(dt);
    dt_prev = dt;
    ++sum.steps;

    if (solver_->time() >= next_snapshot - 1e-12) {
      if (on_snapshot) {
        YY_TRACE_SCOPE(obs::Phase::io);
        on_snapshot(*solver_, sum.snapshots);
      }
      ++sum.snapshots;
      next_snapshot += ctl.snapshot_interval;
    }
    if (sum.steps % 16 == 0) {
      const auto e = solver_->energies();
      if (!std::isfinite(e.kinetic) || !std::isfinite(e.thermal)) {
        sum.diverged = true;
        break;
      }
    }
  }
  sum.t_final = solver_->time();
  sum.wall_seconds = timer.seconds();
  return sum;
}

}  // namespace yy::core
