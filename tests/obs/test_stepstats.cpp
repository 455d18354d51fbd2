/// StepStats / StepStatsRing / aggregate_step unit tests, plus the
/// RankTrace span-budget cap and the enum<->name-table sync guards the
/// static_asserts in trace.hpp / events.hpp pin at compile time.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/stepstats.hpp"
#include "obs/trace.hpp"

using namespace yy::obs;

namespace {

StepStats make_step(std::int64_t step, int rank) {
  StepStats s;
  s.step = step;
  s.dt = 0.5;
  s.cfl_limit_dt = 0.25;
  s.wall_seconds = 0.02;
  // Compute grows with rank (rank 3 is the straggler); the halo wait
  // shrinks to match, the way a bulk-synchronous step really behaves.
  s.seconds[static_cast<std::size_t>(Phase::rhs)] = 1e-3 * (rank + 1);
  s.seconds[static_cast<std::size_t>(Phase::halo_wait)] = 1e-2 - 1e-3 * rank;
  s.bytes[static_cast<std::size_t>(Phase::halo_wait)] =
      1000 * static_cast<std::uint64_t>(rank);
  s.event_delta[static_cast<std::size_t>(Event::comm_timeout)] =
      static_cast<std::uint64_t>(rank);
  s.spans_dropped = static_cast<std::uint64_t>(rank);
  return s;
}

TEST(StepStats, WaitPhaseClassification) {
  EXPECT_TRUE(is_wait_phase(Phase::halo_wait));
  EXPECT_TRUE(is_wait_phase(Phase::overset_wait));
  EXPECT_TRUE(is_wait_phase(Phase::reduce));
  EXPECT_FALSE(is_wait_phase(Phase::rhs));
  EXPECT_FALSE(is_wait_phase(Phase::boundary));
  EXPECT_FALSE(is_wait_phase(Phase::io));
  EXPECT_FALSE(is_wait_phase(Phase::other));
}

TEST(StepStats, ComputeWaitSplit) {
  const StepStats s = make_step(0, 2);
  EXPECT_DOUBLE_EQ(s.compute_seconds(), 3e-3);
  EXPECT_DOUBLE_EQ(s.wait_seconds(), 8e-3);
  EXPECT_DOUBLE_EQ(s.phase_seconds(), s.compute_seconds() + s.wait_seconds());
}

TEST(StepStats, PackUnpackRoundTrip) {
  StepStats s;
  s.step = 123456789;
  s.dt = 1.25e-3;
  s.cfl_limit_dt = 2.5e-3;
  s.wall_seconds = 0.75;
  s.spans_dropped = 4242;
  for (int p = 0; p < kNumPhases; ++p) {
    s.seconds[static_cast<std::size_t>(p)] = 0.001 * (p + 1);
    s.bytes[static_cast<std::size_t>(p)] = 1000u * (p + 7);
    CounterValues& c = s.ctr[static_cast<std::size_t>(p)];
    c.cycles = 1000000u * (p + 1) + 1;
    c.instructions = 2000000u * (p + 1) + 3;
    c.cache_refs = 30000u * (p + 1);
    c.cache_misses = 4000u * (p + 1);
    c.hw_flops = 500000u * (p + 1);
    c.flops = 600000u * (p + 1) + 7;
  }
  for (int e = 0; e < kNumEvents; ++e)
    s.event_delta[static_cast<std::size_t>(e)] = 10u * e + 1;

  double buf[kStepStatsDoubles];
  pack_step_stats(s, buf);
  const StepStats r = unpack_step_stats(buf);
  EXPECT_EQ(r.step, s.step);
  EXPECT_DOUBLE_EQ(r.dt, s.dt);
  EXPECT_DOUBLE_EQ(r.cfl_limit_dt, s.cfl_limit_dt);
  EXPECT_DOUBLE_EQ(r.wall_seconds, s.wall_seconds);
  EXPECT_EQ(r.spans_dropped, s.spans_dropped);
  EXPECT_EQ(r.seconds, s.seconds);
  EXPECT_EQ(r.bytes, s.bytes);
  EXPECT_EQ(r.event_delta, s.event_delta);
  for (int p = 0; p < kNumPhases; ++p) {
    const CounterValues& a = r.ctr[static_cast<std::size_t>(p)];
    const CounterValues& b = s.ctr[static_cast<std::size_t>(p)];
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cache_refs, b.cache_refs);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.hw_flops, b.hw_flops);
    EXPECT_EQ(a.flops, b.flops);
  }
}

TEST(StepStatsRing, RetainsNewestOnceFull) {
  StepStatsRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i) ring.push(make_step(i, 0));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 10u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.from_oldest(i).step, static_cast<std::int64_t>(6 + i));
    EXPECT_EQ(ring.from_newest(i).step, static_cast<std::int64_t>(9 - i));
  }
  EXPECT_THROW(ring.from_oldest(4), std::out_of_range);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_pushed(), 0u);
}

TEST(StepStatsRing, InOrderBeforeWrap) {
  StepStatsRing ring(8);
  for (int i = 0; i < 3; ++i) ring.push(make_step(i, 0));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.from_oldest(0).step, 0);
  EXPECT_EQ(ring.from_newest(0).step, 2);
}

TEST(AggregateStep, SkewedRanksImbalanceAndStraggler) {
  std::vector<StepStats> per_rank;
  for (int r = 0; r < 4; ++r) per_rank.push_back(make_step(7, r));
  const StepAgg a = aggregate_step(per_rank);

  EXPECT_EQ(a.step, 7);
  EXPECT_DOUBLE_EQ(a.dt, 0.5);
  EXPECT_DOUBLE_EQ(a.cfl_limit_dt, 0.25);
  EXPECT_EQ(a.ranks, 4);

  // Compute per rank is 1,2,3,4 ms: mean 2.5, max 4 -> imbalance 1.6,
  // straggler is world rank 3.
  EXPECT_NEAR(a.compute_mean_s, 2.5e-3, 1e-12);
  EXPECT_NEAR(a.compute_max_s, 4e-3, 1e-12);
  EXPECT_NEAR(a.imbalance, 1.6, 1e-12);
  EXPECT_EQ(a.straggler, 3);

  const PhaseAgg& rhs = a.phase_agg(Phase::rhs);
  EXPECT_NEAR(rhs.min_s, 1e-3, 1e-12);
  EXPECT_NEAR(rhs.mean_s, 2.5e-3, 1e-12);
  EXPECT_NEAR(rhs.max_s, 4e-3, 1e-12);
  EXPECT_NEAR(rhs.sum_s, 1e-2, 1e-12);
  EXPECT_EQ(rhs.argmax_rank, 3);

  // Halo wait shrinks with rank: max (and argmax) is rank 0; bytes sum.
  const PhaseAgg& halo = a.phase_agg(Phase::halo_wait);
  EXPECT_NEAR(halo.min_s, 7e-3, 1e-12);
  EXPECT_NEAR(halo.max_s, 1e-2, 1e-12);
  EXPECT_EQ(halo.argmax_rank, 0);
  EXPECT_EQ(halo.bytes, 6000u);

  EXPECT_NEAR(a.wait_mean_s, 8.5e-3, 1e-12);
  EXPECT_NEAR(a.wait_max_s, 1e-2, 1e-12);
  EXPECT_NEAR(a.wall_max_s, 0.02, 1e-12);
  EXPECT_GT(a.wait_fraction(), 0.5);

  // Events are process-global counters: cross-rank reduction is max,
  // not sum; span drops are genuinely per-rank and do sum.
  EXPECT_EQ(a.event_delta[static_cast<std::size_t>(Event::comm_timeout)], 3u);
  EXPECT_EQ(a.spans_dropped, 6u);
}

TEST(AggregateStep, SingleRankIsIdentity) {
  const StepAgg a = aggregate_step({make_step(3, 1)});
  EXPECT_EQ(a.ranks, 1);
  EXPECT_DOUBLE_EQ(a.imbalance, 1.0);
  EXPECT_EQ(a.straggler, 0);
  EXPECT_DOUBLE_EQ(a.compute_mean_s, a.compute_max_s);
}

TEST(AggregateStep, EmptyThrows) {
  EXPECT_THROW(aggregate_step({}), std::invalid_argument);
}

TEST(AggregateStep, ZeroComputeHasUnitImbalance) {
  StepStats s;
  s.step = 0;
  const StepAgg a = aggregate_step({s, s});
  EXPECT_DOUBLE_EQ(a.imbalance, 1.0);
}

TEST(SpanBudget, CapsBufferAndCountsEvictions) {
  TraceRecorder rec;
  RankTrace& t = rec.rank_trace(0);
  EXPECT_EQ(t.span_budget(), 0u);  // unbounded by default (seed behaviour)
  t.set_span_budget(16);
  for (std::int64_t i = 0; i < 100; ++i)
    t.record(Phase::rhs, i, i + 1, 0);
  EXPECT_LE(t.spans().size(), 16u);
  EXPECT_EQ(t.recorded_total(), 100u);
  EXPECT_EQ(t.evicted(), 100u - t.spans().size());
  EXPECT_GT(t.evicted(), 0u);
  // The survivors are exactly the newest recorded_total - evicted.
  EXPECT_EQ(t.spans().front().t0_ns,
            static_cast<std::int64_t>(t.evicted()));
  EXPECT_EQ(t.spans().back().t0_ns, 99);
}

TEST(SpanBudget, UnboundedKeepsEverything) {
  TraceRecorder rec;
  RankTrace& t = rec.rank_trace(0);
  for (std::int64_t i = 0; i < 5000; ++i)
    t.record(Phase::other, i, i + 1, 0);
  EXPECT_EQ(t.spans().size(), 5000u);
  EXPECT_EQ(t.evicted(), 0u);
}

TEST(EnumSync, PhaseNamesDistinctAndValid) {
  std::set<std::string> names;
  for (int p = 0; p < kNumPhases; ++p) {
    const char* n = phase_name(static_cast<Phase>(p));
    ASSERT_NE(n, nullptr);
    EXPECT_GT(std::strlen(n), 0u);
    EXPECT_STRNE(n, "?");
    names.insert(n);
  }
  // A duplicated table entry would collapse the set.
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumPhases));
}

TEST(EnumSync, EventNamesDistinctAndValid) {
  std::set<std::string> names;
  for (int e = 0; e < kNumEvents; ++e) {
    const char* n = event_name(static_cast<Event>(e));
    ASSERT_NE(n, nullptr);
    EXPECT_GT(std::strlen(n), 0u);
    EXPECT_STRNE(n, "?");
    names.insert(n);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumEvents));
}

TEST(EnumSync, PackedWidthMatchesTaxonomies) {
  // The gather payload layout depends on both enum sizes and the
  // CounterValues width; a change to any must revisit
  // pack_step_stats/unpack_step_stats.
  EXPECT_EQ(kStepStatsDoubles,
            5u + (2u + kCounterDoubles) * static_cast<std::size_t>(kNumPhases) +
                static_cast<std::size_t>(kNumEvents));
}

}  // namespace
