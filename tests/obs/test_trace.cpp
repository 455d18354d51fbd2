/// Tracing layer tests: recording semantics, chrome://tracing export
/// (the golden trace of a real 2-rank distributed run must be valid
/// JSON with monotonic, non-overlapping spans per thread), and the
/// halo byte attribution cross-checked against the analytic message
/// size formula of core/decomposition, and the exact span count of
/// every phase on every rank.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <thread>
#include <vector>

#include "comm/runtime.hpp"
#include "core/distributed_solver.hpp"
#include "json_lite.hpp"
#include "obs/chrome_trace.hpp"

namespace yy::obs {
namespace {

TEST(Trace, UnboundThreadRecordsNothing) {
  TraceRecorder rec;
  {
    PhaseScope sc(Phase::rhs);
    sc.add_bytes(100);
  }
  EXPECT_TRUE(rec.traces().empty());
}

TEST(Trace, BoundScopeRecordsSpanWithStepAndBytes) {
  TraceRecorder rec;
  {
    ScopedRankBind bind(rec, 3);
    set_current_step(7);
    {
      PhaseScope sc(Phase::halo_wait);
      sc.add_bytes(256);
      sc.add_bytes(44);
    }
    { PhaseScope sc(Phase::rhs); }
  }
  const auto traces = rec.traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0]->rank(), 3);
  const auto& spans = traces[0]->spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].phase, Phase::halo_wait);
  EXPECT_EQ(spans[0].bytes, 300u);
  EXPECT_EQ(spans[0].step, 7);
  EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns);
  EXPECT_EQ(spans[1].phase, Phase::rhs);
  // Leaf spans on one thread never overlap.
  EXPECT_LE(spans[0].t1_ns, spans[1].t0_ns);
}

TEST(Trace, BindRestoresPreviousBindingOnExit) {
  TraceRecorder rec;
  ScopedRankBind outer(rec, 0);
  {
    ScopedRankBind inner(rec, 1);
    { PhaseScope sc(Phase::io); }
  }
  { PhaseScope sc(Phase::rhs); }
  const auto traces = rec.traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0]->spans().size(), 1u);
  EXPECT_EQ(traces[0]->spans()[0].phase, Phase::rhs);
  EXPECT_EQ(traces[1]->spans()[0].phase, Phase::io);
}

TEST(Trace, ConcurrentRankRegistrationIsSafe) {
  TraceRecorder rec;
  std::vector<std::thread> threads;
  for (int r = 0; r < 8; ++r)
    threads.emplace_back([&rec, r] {
      ScopedRankBind bind(rec, r);
      for (int i = 0; i < 100; ++i) PhaseScope sc(Phase::other);
    });
  for (auto& t : threads) t.join();
  const auto traces = rec.traces();
  ASSERT_EQ(traces.size(), 8u);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(traces[static_cast<std::size_t>(r)]->rank(), r);
    EXPECT_EQ(traces[static_cast<std::size_t>(r)]->spans().size(), 100u);
  }
}

TEST(Trace, NullPhaseScopeCompilesToNothing) {
  // The YY_TRACE_LEVEL=0 stand-in must accept the same calls.
  NullPhaseScope sc(Phase::rhs);
  sc.add_bytes(123);
}

core::SimulationConfig small_config() {
  core::SimulationConfig cfg;
  cfg.nr = 7;
  cfg.nt_core = 11;
  cfg.np_core = 31;
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

/// Runs the distributed solver with every rank bound to `rec`.
void traced_run(TraceRecorder& rec, const core::SimulationConfig& cfg, int pt,
                int pp, int steps) {
  comm::Runtime rt(2 * pt * pp);
  rt.run([&](comm::Communicator& w) {
    ScopedRankBind bind(rec, w.rank());
    core::DistributedSolver solver(cfg, w, pt, pp);
    solver.initialize();
    const double dt = solver.stable_dt();
    for (int i = 0; i < steps; ++i) solver.step(dt);
    solver.gather_field(0, yinyang::Panel::yin);
  });
}

TEST(GoldenTrace, TwoRankRunExportsValidNonOverlappingChromeTrace) {
#if !YY_TRACE_LEVEL
  GTEST_SKIP() << "solver instrumentation compiled out (YY_TRACE_LEVEL=0)";
#endif
  TraceRecorder rec;
  traced_run(rec, small_config(), 1, 1, 2);

  const std::string json = chrome_trace_json(rec);
  const testjson::ValuePtr doc = testjson::parse(json);  // throws if invalid
  ASSERT_EQ(doc->kind, testjson::Value::Kind::object);
  const testjson::Value& events = doc->at("traceEvents");
  ASSERT_EQ(events.kind, testjson::Value::Kind::array);
  ASSERT_GT(events.arr.size(), 10u);

  // Collect complete events per (pid, tid).
  std::map<std::pair<double, double>, std::vector<std::pair<double, double>>>
      per_thread;  // (pid,tid) -> [(ts, dur)]
  int metadata = 0;
  for (const testjson::ValuePtr& ev : events.arr) {
    const std::string ph = ev->at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const double ts = ev->at("ts").num;
    const double dur = ev->at("dur").num;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    EXPECT_GE(ev->at("args").at("bytes").num, 0.0);
    // Span names are drawn from the documented taxonomy.
    const std::string name = ev->at("name").str;
    const char* known[] = {"rhs",    "halo_wait", "overset_wait", "boundary",
                           "reduce", "io",        "other"};
    EXPECT_NE(std::find_if(std::begin(known), std::end(known),
                           [&](const char* k) { return name == k; }),
              std::end(known))
        << "unknown span name " << name;
    per_thread[{ev->at("pid").num, ev->at("tid").num}].push_back({ts, dur});
  }
  EXPECT_EQ(metadata, 2);        // one thread_name row per rank
  ASSERT_EQ(per_thread.size(), 2u);  // both ranks on the one timeline

  // Per thread: spans sorted by start must not overlap (leaf-level
  // instrumentation guarantees strict sequencing per rank).
  for (auto& [tid, spans] : per_thread) {
    EXPECT_GT(spans.size(), 20u);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].first + spans[i - 1].second,
                spans[i].first + 0.01)  // 10 ns slack for µs rounding
          << "overlapping spans on tid " << tid.second << " at index " << i;
    }
  }
}

TEST(GoldenTrace, HaloSpanBytesMatchAnalyticMessageSizeFormula) {
#if !YY_TRACE_LEVEL
  GTEST_SKIP() << "solver instrumentation compiled out (YY_TRACE_LEVEL=0)";
#endif
  const core::SimulationConfig cfg = small_config();
  const int pt = 2, pp = 1, steps = 2;
  TraceRecorder rec;
  traced_run(rec, cfg, pt, pp, steps);

  // The analytic halo volume per exchange, derived independently from
  // the decomposition: with a 2×1 panel grid every rank has exactly one
  // θ neighbour, so it sends + receives one θ strip of all 8 fields:
  //   2 × [Nr_full · ghost · Np_full · 8 fields] · sizeof(double).
  const auto geom = yinyang::ComponentGeometry::with_auto_margin(
      cfg.nt_core, cfg.np_core);
  const core::PanelDecomposition decomp(geom.nt(), geom.np(), pt, pp);
  const int gh = geom.ghost();

  const auto traces = rec.traces();
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(2 * pt * pp));
  for (const RankTrace* t : traces) {
    const int panel_rank = t->rank() % (pt * pp);
    const auto e = decomp.patch(panel_rank / pp, panel_rank % pp);
    const std::uint64_t nr_full = static_cast<std::uint64_t>(cfg.nr) + 2 * gh;
    const std::uint64_t np_full = static_cast<std::uint64_t>(e.np) + 2 * gh;
    const std::uint64_t expected =
        2 * nr_full * static_cast<std::uint64_t>(gh) * np_full * 8 *
        sizeof(double);

    // Every span the rank records, by phase, against the run's
    // schedule: initialize() fills ghosts once (halo, overset, wall
    // boundary); stable_dt() is one reduction; each RK4 step runs four
    // stages (rhs), each followed by a fill; gather_field() is one io
    // span.  Nothing else opens a span: 16·steps + 6 per rank.
    std::array<std::uint64_t, kNumPhases> want{};
    const auto fills = static_cast<std::uint64_t>(1 + 4 * steps);
    want[static_cast<int>(Phase::rhs)] = static_cast<std::uint64_t>(4 * steps);
    want[static_cast<int>(Phase::halo_wait)] = fills;
    want[static_cast<int>(Phase::overset_wait)] = fills;
    want[static_cast<int>(Phase::boundary)] = fills;
    want[static_cast<int>(Phase::reduce)] = 1;
    want[static_cast<int>(Phase::io)] = 1;

    std::array<std::uint64_t, kNumPhases> got{};
    for (const Span& s : t->spans()) {
      ++got[static_cast<int>(s.phase)];
      if (s.phase == Phase::halo_wait) {
        EXPECT_EQ(s.bytes, expected) << "rank " << t->rank();
      }
    }
    for (int ph = 0; ph < kNumPhases; ++ph)
      EXPECT_EQ(got[ph], want[ph])
          << "rank " << t->rank() << " phase "
          << phase_name(static_cast<Phase>(ph));
  }
}

}  // namespace
}  // namespace yy::obs
