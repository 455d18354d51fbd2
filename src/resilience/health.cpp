#include "resilience/health.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace yy::resilience {

namespace {

// Severity codes fed to allreduce-max; higher = worse.
constexpr double kHealthy = 0.0;
constexpr double kCfl = 1.0;
constexpr double kDenormal = 2.0;
constexpr double kBlowup = 3.0;
constexpr double kNonfinite = 4.0;

}  // namespace

const char* verdict_name(HealthVerdict v) {
  switch (v) {
    case HealthVerdict::healthy: return "healthy";
    case HealthVerdict::cfl_collapse: return "cfl_collapse";
    case HealthVerdict::denormal_flood: return "denormal_flood";
    case HealthVerdict::blowup: return "blowup";
    case HealthVerdict::nonfinite: return "nonfinite";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthPolicy policy) : policy_(policy) {
  YY_REQUIRE(policy_.check_interval >= 1);
  YY_REQUIRE(policy_.blowup_threshold > 0.0);
}

bool HealthMonitor::due(long long step) const {
  return step > 0 && step % policy_.check_interval == 0;
}

HealthVerdict HealthMonitor::check(const core::DistributedSolver& s,
                                   double dt) const {
  double code = kHealthy;
  if (policy_.min_dt > 0.0 && dt < policy_.min_dt) code = kCfl;
  for (const Field3* fld : s.local_state().all()) {
    long long denormals = 0;
    for (double v : fld->flat()) {
      if (!std::isfinite(v)) {  // catches NaN and ±Inf alike
        code = kNonfinite;
        break;
      }
      const double m = std::fabs(v);
      if (m > policy_.blowup_threshold && code < kBlowup) code = kBlowup;
      if (v != 0.0 && m < std::numeric_limits<double>::min()) ++denormals;
    }
    if (code == kNonfinite) break;
    if (policy_.denormal_flood_fraction > 0.0 && code < kDenormal &&
        static_cast<double>(denormals) >
            policy_.denormal_flood_fraction *
                static_cast<double>(fld->size()))
      code = kDenormal;
  }
  {
    YY_TRACE_SCOPE(obs::Phase::reduce);
    // The verdict must not outlive its peers: bound the collective so a
    // failed rank turns into a timeout the recovery ladder can act on.
    code = s.runner().world().allreduce_max(code,
                                            policy_.verdict_deadline_ms);
  }

  const comm::Communicator& world = s.runner().world();
  if (world.rank() == 0) {
    obs::count_event(obs::Event::health_check);
    if (code >= kNonfinite)
      obs::count_event(obs::Event::health_nonfinite);
    else if (code >= kBlowup)
      obs::count_event(obs::Event::health_blowup);
    else if (code >= kDenormal)
      obs::count_event(obs::Event::health_denormal);
    else if (code >= kCfl)
      obs::count_event(obs::Event::health_cfl_collapse);
  }
  if (code >= kNonfinite) return HealthVerdict::nonfinite;
  if (code >= kBlowup) return HealthVerdict::blowup;
  if (code >= kDenormal) return HealthVerdict::denormal_flood;
  if (code >= kCfl) return HealthVerdict::cfl_collapse;
  return HealthVerdict::healthy;
}

}  // namespace yy::resilience
