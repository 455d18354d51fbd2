/// Telemetry-layer tests: RunManifest stamping, the collective
/// RankTelemetry gather at 1/2/4 ranks with synthetically skewed span
/// durations (imbalance and straggler attribution are checked against
/// closed-form values), telemetry CSV/JSON schema validation with the
/// json_lite parser, span-budget interaction, and the headline
/// reconciliation guarantee: the per-step phase sums in the telemetry
/// series equal the end-of-run MetricsSummary totals computed from the
/// very same spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/distributed_solver.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#include "json_lite.hpp"

using namespace yy;
using namespace yy::obs;

namespace {

RunManifest test_manifest(int world) {
  RunManifest man = RunManifest::current_build();
  man.app = "test_telemetry";
  man.mode = "synthetic";
  man.world = world;
  man.pt = 1;
  man.pp = world / 2;
  man.nr = 13;
  man.nt_core = 17;
  man.np_core = 49;
  man.heartbeat_interval = 1;
  man.extra.emplace_back("steps", "4");
  return man;
}

/// Drives RankTelemetry over `world` rank threads with hand-recorded
/// spans of known, rank-dependent durations: each step, rank r spends
/// (r+1) ms in rhs (compute) and 2 ms in halo_wait, so the expected
/// imbalance, straggler and per-phase aggregates have closed forms.
void run_synthetic(int world, int steps, int interval, TelemetrySink& sink,
                   int spans_per_step = 1) {
  TraceRecorder rec;
  comm::Runtime rt(world);
  rt.run([&](comm::Communicator& w) {
    ScopedRankBind bind(rec, w.rank());
    RankTrace& t = rec.rank_trace(w.rank());
    TelemetryConfig cfg;
    cfg.interval = interval;
    cfg.ring_capacity = 64;
    cfg.span_budget = 0;  // leave the trace unbounded here
    RankTelemetry tel(w, sink, cfg);
    for (int i = 0; i < steps; ++i) {
      tel.begin_step(i, 0.5, 0.25);
      for (int k = 0; k < spans_per_step; ++k) {
        t.record(Phase::rhs, 0, 1'000'000 * (w.rank() + 1), 100);
        t.record(Phase::halo_wait, 0, 2'000'000, 50);
      }
      tel.end_step();
    }
    tel.flush();
  });
}

TEST(RunManifest, JsonRoundTripsThroughParser) {
  RunManifest man = test_manifest(4);
  man.app = "quoted \"app\"";  // exercises string escaping
  const auto doc = testjson::parse(man.json());
  EXPECT_EQ(doc->at("app").str, "quoted \"app\"");
  EXPECT_EQ(doc->at("mode").str, "synthetic");
  EXPECT_EQ(doc->at("world").num, 4.0);
  EXPECT_EQ(doc->at("pt").num, 1.0);
  EXPECT_EQ(doc->at("pp").num, 2.0);
  EXPECT_EQ(doc->at("nr").num, 13.0);
  EXPECT_EQ(doc->at("trace_level").num, static_cast<double>(YY_TRACE_LEVEL));
  EXPECT_EQ(doc->at("heartbeat_interval").num, 1.0);
  EXPECT_FALSE(doc->at("build_type").str.empty());
  EXPECT_FALSE(doc->at("sanitizer").str.empty());
  EXPECT_EQ(doc->at("extra").at("steps").str, "4");
}

TEST(RunManifest, CsvCommentsAreCommentLines) {
  std::ostringstream os;
  test_manifest(2).write_csv_comments(os);
  const std::string s = os.str();
  EXPECT_EQ(s.rfind("# app=test_telemetry", 0), 0u);
  EXPECT_NE(s.find("# world=2"), std::string::npos);
  EXPECT_NE(s.find("# steps=4"), std::string::npos);
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) EXPECT_EQ(line.rfind("#", 0), 0u) << line;
}

class SyntheticAggregation : public ::testing::TestWithParam<int> {};

TEST_P(SyntheticAggregation, ImbalanceStragglerAndPhaseStats) {
  const int world = GetParam();
  const int steps = 4;
  TelemetrySink sink(test_manifest(world));
  run_synthetic(world, steps, /*interval=*/2, sink);

  ASSERT_EQ(sink.series().size(), static_cast<std::size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    const StepAgg& a = sink.series()[static_cast<std::size_t>(k)];
    EXPECT_EQ(a.step, k);
    EXPECT_DOUBLE_EQ(a.dt, 0.5);
    EXPECT_DOUBLE_EQ(a.cfl_limit_dt, 0.25);
    EXPECT_EQ(a.ranks, world);

    // Compute per rank is (r+1) ms: mean (world+1)/2, max world.
    EXPECT_NEAR(a.compute_mean_s, 1e-3 * (world + 1) / 2.0, 1e-12);
    EXPECT_NEAR(a.compute_max_s, 1e-3 * world, 1e-12);
    EXPECT_NEAR(a.imbalance, 2.0 * world / (world + 1), 1e-9);
    EXPECT_EQ(a.straggler, world - 1);

    const PhaseAgg& rhs = a.phase_agg(Phase::rhs);
    EXPECT_NEAR(rhs.min_s, 1e-3, 1e-12);
    EXPECT_NEAR(rhs.max_s, 1e-3 * world, 1e-12);
    EXPECT_EQ(rhs.argmax_rank, world - 1);
    EXPECT_EQ(rhs.bytes, 100u * static_cast<std::uint64_t>(world));

    const PhaseAgg& halo = a.phase_agg(Phase::halo_wait);
    EXPECT_NEAR(halo.mean_s, 2e-3, 1e-12);
    EXPECT_NEAR(a.wait_mean_s, 2e-3, 1e-12);
    EXPECT_EQ(a.spans_dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, SyntheticAggregation,
                         ::testing::Values(1, 2, 4));

TEST(Telemetry, PartialWindowIsFlushed) {
  // 5 steps at interval 3: one full gather plus a 2-step flush.
  TelemetrySink sink(test_manifest(2));
  run_synthetic(2, /*steps=*/5, /*interval=*/3, sink);
  ASSERT_EQ(sink.series().size(), 5u);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(sink.series()[static_cast<std::size_t>(k)].step, k);
}

TEST(Telemetry, JsonSchemaValidates) {
  TelemetrySink sink(test_manifest(2));
  run_synthetic(2, 4, 2, sink);

  const auto doc = testjson::parse(sink.json());
  EXPECT_EQ(doc->at("schema").str, "yy-telemetry-2");
  EXPECT_EQ(doc->at("manifest").at("counter_backend").str, "off");
  EXPECT_EQ(doc->at("manifest").at("app").str, "test_telemetry");
  const auto& steps = doc->at("steps");
  ASSERT_EQ(steps.kind, testjson::Value::Kind::array);
  ASSERT_EQ(steps.arr.size(), 4u);
  for (std::size_t k = 0; k < steps.arr.size(); ++k) {
    const auto& s = *steps.arr[k];
    EXPECT_EQ(s.at("step").num, static_cast<double>(k));
    EXPECT_EQ(s.at("ranks").num, 2.0);
    EXPECT_EQ(s.at("straggler").num, 1.0);
    EXPECT_NEAR(s.at("imbalance").num, 4.0 / 3.0, 1e-6);
    const auto& rhs = s.at("phases").at("rhs");
    EXPECT_EQ(rhs.at("argmax_rank").num, 1.0);
    EXPECT_NEAR(rhs.at("max_s").num, 2e-3, 1e-9);
    EXPECT_EQ(rhs.at("bytes").num, 200.0);
    EXPECT_TRUE(s.at("phases").has("halo_wait"));
    EXPECT_EQ(s.at("events").kind, testjson::Value::Kind::object);
  }
}

TEST(Telemetry, CsvSchemaValidates) {
  TelemetrySink sink(test_manifest(2));
  run_synthetic(2, 4, 2, sink);

  const std::string csv = sink.csv();
  EXPECT_EQ(csv.rfind("# app=test_telemetry", 0), 0u);
  EXPECT_NE(csv.find("step,dt,phase,min_s,mean_s,max_s,sum_s,argmax_rank,"
                     "bytes,cycles,instructions,cache_refs,cache_misses,"
                     "hw_flops,flops\n"),
            std::string::npos);
  // One STEP summary row per aggregated step, plus the column-doc line.
  int step_rows = 0, phase_rows = 0, comments = 0;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) ++comments;
    else if (line.find(",STEP,") != std::string::npos) ++step_rows;
    else if (line.find(",rhs,") != std::string::npos ||
             line.find(",halo_wait,") != std::string::npos)
      ++phase_rows;
  }
  EXPECT_EQ(step_rows, 4);
  EXPECT_EQ(phase_rows, 8);  // 2 non-empty phases x 4 steps
  EXPECT_GE(comments, 7);    // manifest + column docs
}

TEST(Telemetry, HeartbeatLinePerStep) {
  std::ostringstream hb;
  TelemetrySink sink(test_manifest(2), &hb);
  run_synthetic(2, 3, 1, sink);

  const std::string out = hb.str();
  int lines = 0;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("[telemetry] step", 0), 0u) << line;
    EXPECT_NE(line.find("imb"), std::string::npos);
    EXPECT_NE(line.find("straggler r1"), std::string::npos);
    EXPECT_NE(line.find("rhs"), std::string::npos);
  }
  EXPECT_EQ(lines, 3);
}

TEST(Telemetry, SpanBudgetBoundsTraceAndReportsDrops) {
  TraceRecorder rec;
  comm::Runtime rt(1);
  TelemetrySink sink(test_manifest(1));
  rt.run([&](comm::Communicator& w) {
    ScopedRankBind bind(rec, w.rank());
    RankTrace& t = rec.rank_trace(w.rank());
    TelemetryConfig cfg;
    cfg.interval = 1;
    cfg.ring_capacity = 64;
    cfg.span_budget = 8;  // tiny on purpose
    RankTelemetry tel(w, sink, cfg);
    for (int i = 0; i < 4; ++i) {
      tel.begin_step(i, 0.5);
      for (int k = 0; k < 20; ++k)
        t.record(Phase::rhs, 0, 1'000'000, 0);
      tel.end_step();
    }
    tel.flush();
  });

  const RankTrace& t = *rec.traces()[0];
  EXPECT_LE(t.spans().size(), 8u);
  EXPECT_GT(t.evicted(), 0u);
  std::uint64_t dropped = 0;
  for (const StepAgg& a : sink.series()) dropped += a.spans_dropped;
  EXPECT_EQ(dropped, t.evicted());
  // Every retained span is still folded: the last step's rhs time can
  // never exceed what was recorded in it.
  EXPECT_GT(dropped, 0u);
}

// The acceptance-criterion test: drive the real distributed solver with
// telemetry attached and check the exported per-step phase sums
// reconcile with the end-of-run MetricsSummary computed from the same
// spans.  The trace is bound only after initialize()/stable_dt(), so
// the recorder holds exactly the step-loop spans the telemetry saw.
TEST(Telemetry, SeriesReconcilesWithMetricsSummary) {
#if YY_TRACE_LEVEL == 0
  GTEST_SKIP() << "solver span instrumentation compiled out";
#endif
  core::SimulationConfig cfg;
  cfg.nr = 13;
  cfg.nt_core = 17;
  cfg.np_core = 49;
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;

  const int steps = 7;
  RunManifest man = test_manifest(2);
  man.app = "reconcile";
  TelemetrySink sink(man);
  TraceRecorder rec;
  std::mutex mu;
  std::vector<StepStats> per_rank_steps;
  comm::Runtime rt(2);
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, /*pt=*/1, /*pp=*/1);
    solver.initialize();
    const double dt = solver.stable_dt();
    ScopedRankBind bind(rec, w.rank());
    TelemetryConfig tcfg;
    tcfg.interval = 3;  // 2 full windows + a 1-step flush
    tcfg.ring_capacity = 16;
    tcfg.span_budget = 0;
    RankTelemetry tel(w, sink, tcfg);
    solver.attach_telemetry(&tel);
    for (int i = 0; i < steps; ++i) solver.step(dt);
    tel.flush();
    std::lock_guard lock(mu);
    for (std::size_t i = 0; i < tel.ring().size(); ++i)
      per_rank_steps.push_back(tel.ring().from_oldest(i));
  });

  // Leaf spans never overlap, so their sum is bounded by the step wall
  // (small slack for clock granularity) and — because every heavy
  // kernel is instrumented — covers most of it.
  ASSERT_EQ(per_rank_steps.size(), static_cast<std::size_t>(2 * steps));
  for (const StepStats& s : per_rank_steps) {
    EXPECT_LE(s.phase_seconds(), 1.05 * s.wall_seconds + 1e-4);
    EXPECT_GE(s.phase_seconds(), 0.25 * s.wall_seconds);
  }

  ASSERT_EQ(sink.series().size(), static_cast<std::size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    const StepAgg& a = sink.series()[static_cast<std::size_t>(k)];
    EXPECT_EQ(a.step, k);
    EXPECT_EQ(a.ranks, 2);
    EXPECT_GT(a.compute_mean_s, 0.0);
    EXPECT_GT(a.cfl_limit_dt, 0.0);  // stable_dt() cache reached telemetry
  }

  const MetricsSummary m = collect_metrics(rec);
  EXPECT_EQ(m.steps, steps);
  for (int p = 0; p < kNumPhases; ++p) {
    const double total = m.total[static_cast<std::size_t>(p)].seconds;
    double series_sum = 0.0;
    for (const StepAgg& a : sink.series())
      series_sum += a.phase[static_cast<std::size_t>(p)].sum_s;
    // Same spans, different summation order: FP tolerance only.
    EXPECT_NEAR(series_sum, total, 1e-9 * (total + 1.0))
        << phase_name(static_cast<Phase>(p));
    std::uint64_t series_bytes = 0;
    for (const StepAgg& a : sink.series())
      series_bytes += a.phase[static_cast<std::size_t>(p)].bytes;
    EXPECT_EQ(series_bytes, m.total[static_cast<std::size_t>(p)].bytes)
        << phase_name(static_cast<Phase>(p));
  }
  // The solver really did exchange data while telemetry watched (one
  // rank per panel: traffic is the inter-panel overset interpolation).
  EXPECT_GT(m.phase(Phase::overset_wait).bytes, 0u);
}

TEST(ManifestStamping, MetricsJsonCarriesManifest) {
  TraceRecorder rec;
  rec.rank_trace(0).record(Phase::rhs, 0, 1'000'000, 0);
  const MetricsSummary m = collect_metrics(rec);

  std::ostringstream js;
  write_metrics_json(m, js, test_manifest(1));
  const auto doc = testjson::parse(js.str());
  EXPECT_EQ(doc->at("manifest").at("app").str, "test_telemetry");
  EXPECT_TRUE(doc->has("ranks"));

  std::ostringstream csv;
  write_metrics_csv(m, csv, test_manifest(1));
  EXPECT_EQ(csv.str().rfind("# app=test_telemetry", 0), 0u);
}

TEST(ManifestStamping, ChromeTraceCarriesManifest) {
  TraceRecorder rec;
  rec.rank_trace(0).record(Phase::rhs, 0, 1'000'000, 0);

  std::ostringstream os;
  write_chrome_trace(rec, os, test_manifest(1));
  const auto doc = testjson::parse(os.str());
  EXPECT_EQ(doc->at("otherData").at("app").str, "test_telemetry");
  ASSERT_EQ(doc->at("traceEvents").kind, testjson::Value::Kind::array);
  EXPECT_FALSE(doc->at("traceEvents").arr.empty());
}

}  // namespace
