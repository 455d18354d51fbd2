/// Counter-backend honesty and software-fallback exactness
/// (obs/hwcounters.hpp, DESIGN.md §13).  The perf_event expectations
/// auto-skip where the kernel refuses the syscall (containers, locked
/// hosts, VMs without a PMU) — the fallback path is then what runs, and
/// it must reproduce the analytic flop charges bitwise.
#include "obs/hwcounters.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/flops.hpp"
#include "core/serial_solver.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yy::obs {
namespace {

TEST(HwCounters, BackendNamesArePinned) {
  EXPECT_STREQ(counter_backend_name(CounterBackend::off), "off");
  EXPECT_STREQ(counter_backend_name(CounterBackend::software), "software");
  EXPECT_STREQ(counter_backend_name(CounterBackend::perf_event),
               "perf_event");
}

TEST(HwCounters, ConfigFromEnvRespectsOverrides) {
  ::setenv("YY_COUNTERS", "software", 1);
  ::setenv("YY_COUNTER_FPOPS_RAW", "0x1c7", 1);
  const CounterConfig cfg = CounterGroup::config_from_env();
  EXPECT_FALSE(cfg.want_perf_event);
  EXPECT_EQ(cfg.fp_raw_event, 0x1c7);
  ::unsetenv("YY_COUNTERS");
  ::unsetenv("YY_COUNTER_FPOPS_RAW");
  const CounterConfig def = CounterGroup::config_from_env();
  EXPECT_TRUE(def.want_perf_event);
  EXPECT_EQ(def.fp_raw_event, -1);
}

TEST(HwCounters, BackendIsReportedHonestly) {
  // Default config: the group either got real hardware counters or says
  // exactly why it fell back (the errno goes into the detail string).
  CounterGroup g;
  ASSERT_TRUE(g.backend() == CounterBackend::perf_event ||
              g.backend() == CounterBackend::software);
  EXPECT_FALSE(g.backend_detail().empty());
  if (g.backend() == CounterBackend::software) {
    EXPECT_NE(g.backend_detail().find("software"), std::string::npos)
        << g.backend_detail();
  }
}

TEST(HwCounters, ForcedSoftwareNeverOpensPerfEvent) {
  CounterConfig cfg;
  cfg.want_perf_event = false;
  CounterGroup g(cfg);
  EXPECT_EQ(g.backend(), CounterBackend::software);
  // Software samples carry the charge counter and nothing hardware.
  flops::reset();
  const CounterValues a = g.sample();
  flops::add(1234);
  const CounterValues b = g.sample();
  EXPECT_EQ(b.flops - a.flops, 1234u);
  EXPECT_EQ(b.cycles, 0u);
  EXPECT_EQ(b.instructions, 0u);
  EXPECT_EQ(b.hw_flops, 0u);
}

TEST(HwCounters, PerfEventCountsWhenAvailable) {
  CounterGroup g;
  if (g.backend() != CounterBackend::perf_event)
    GTEST_SKIP() << "perf_event unavailable here: " << g.backend_detail();
  const CounterValues a = g.sample();
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 1e-9;
  const CounterValues b = g.sample();
  EXPECT_GT(b.instructions, a.instructions);
  EXPECT_GE(b.cycles, a.cycles);
}

TEST(HwCounters, ScopedBindNestsAndRestores) {
  EXPECT_EQ(detail::current_counters(), nullptr);
  CounterConfig cfg;
  cfg.want_perf_event = false;
  CounterGroup outer(cfg), inner(cfg);
  {
    ScopedCounterBind a(outer);
    EXPECT_EQ(detail::current_counters(), &outer);
    {
      ScopedCounterBind b(inner);
      EXPECT_EQ(detail::current_counters(), &inner);
    }
    EXPECT_EQ(detail::current_counters(), &outer);
  }
  EXPECT_EQ(detail::current_counters(), nullptr);
}

TEST(HwCounters, SpansCarryExactChargeDeltas) {
  // Software fallback: a span's flop delta is *defined* as the charge
  // inside the scope, so the reconciliation is bitwise.
  CounterConfig cfg;
  cfg.want_perf_event = false;
  CounterGroup g(cfg);
  TraceRecorder rec;
  ScopedRankBind bind(rec, 0);
  ScopedCounterBind cbind(g);
  {
    PhaseScope sc(Phase::rhs);
    flops::add(777777);
  }
  flops::add(111);  // outside any span: must not be attributed
  {
    PhaseScope sc(Phase::boundary);
    flops::add(333333);
  }
  const MetricsSummary m = collect_metrics(rec);
  EXPECT_EQ(m.phase(Phase::rhs).ctr.flops, 777777u);
  EXPECT_EQ(m.phase(Phase::boundary).ctr.flops, 333333u);
  EXPECT_EQ(m.phase(Phase::rhs).ctr.hw_flops, 0u);
}

TEST(HwCounters, SolverPhaseChargesReconcileWithGlobalCount) {
  // End-to-end exactness on the real instrumented solver: every flop
  // the step loop charges lands in some phase's counter, so the
  // per-phase sums reproduce flops::global_count() exactly.
  CounterConfig cfg;
  cfg.want_perf_event = false;
  CounterGroup g(cfg);

  core::SimulationConfig sim;
  sim.nr = 13;
  sim.nt_core = 11;
  sim.np_core = 31;
  core::SerialYinYangSolver solver(sim);
  solver.initialize();
  const double dt = solver.stable_dt();

  // Bind and reset only around the step loop, so the recorded spans
  // and the global counter cover exactly the same work.
  TraceRecorder rec;
  std::uint64_t global = 0;
  {
    ScopedRankBind bind(rec, 0);
    ScopedCounterBind cbind(g);
    flops::global_reset();
    for (int s = 0; s < 2; ++s) solver.step(dt);
    global = flops::global_count();
  }

  const MetricsSummary m = collect_metrics(rec);
  std::uint64_t attributed = 0;
  for (int p = 0; p < kNumPhases; ++p)
    attributed += m.total[static_cast<std::size_t>(p)].ctr.flops;
  EXPECT_EQ(attributed, global);
  EXPECT_GT(global, 0u);
}

}  // namespace
}  // namespace yy::obs
