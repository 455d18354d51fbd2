#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "common/error.hpp"
#include "support/equivalence.hpp"

namespace yy::comm {
namespace {

std::vector<double> iota(int n, double base) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = base + i;
  return v;
}

TEST(FaultInjection, DroppedMessageSurfacesAsDescriptiveTimeout) {
  Runtime rt(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::drop;
  r.src_world = 0;
  r.dest_world = 1;
  r.tag = 7;
  plan->add_rule(r);
  rt.install_fault_plan(plan);

  std::atomic<bool> timed_out{false};
  std::string what;
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) w.send(1, 7, iota(4, 1.0));
    if (w.rank() == 1) {
      std::vector<double> buf(4);
      try {
        w.recv(0, 7, buf, /*deadline_ms=*/150);
      } catch (const Error& e) {
        timed_out = e.kind() == Error::Kind::timeout;
        what = e.what();
      }
    }
  });
  rt.install_fault_plan(nullptr);
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(plan->injected(FaultPlan::Kind::drop), 1u);
  // The error names the awaited sender, the tag and the deadline.
  EXPECT_NE(what.find("world rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("tag 7"), std::string::npos) << what;
  EXPECT_NE(what.find("150"), std::string::npos) << what;
}

TEST(FaultInjection, BitFlipIsDetectedByPayloadCrc) {
  Runtime rt(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::bitflip;
  r.src_world = 0;
  r.dest_world = 1;
  r.tag = 7;
  plan->add_rule(r);
  rt.install_fault_plan(plan);

  std::atomic<bool> corrupted{false};
  std::string what;
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) w.send(1, 7, iota(8, 1.0));
    if (w.rank() == 1) {
      std::vector<double> buf(8);
      try {
        w.recv(0, 7, buf, /*deadline_ms=*/2000);
      } catch (const Error& e) {
        corrupted = e.kind() == Error::Kind::corruption;
        what = e.what();
      }
    }
  });
  rt.install_fault_plan(nullptr);
  EXPECT_TRUE(corrupted.load());
  EXPECT_EQ(plan->injected(FaultPlan::Kind::bitflip), 1u);
  EXPECT_NE(what.find("CRC"), std::string::npos) << what;
}

TEST(FaultInjection, DuplicateEnvelopeIsDiscardedBySequenceNumber) {
  Runtime rt(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::duplicate;
  r.src_world = 0;
  r.dest_world = 1;
  r.tag = 7;
  plan->add_rule(r);  // duplicates the first matching envelope only
  rt.install_fault_plan(plan);

  std::atomic<bool> order_ok{false};
  std::atomic<bool> third_times_out{false};
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) {
      w.send(1, 7, iota(2, 10.0));
      w.send(1, 7, iota(2, 20.0));
    }
    if (w.rank() == 1) {
      std::vector<double> a(2), b(2), c(2);
      w.recv(0, 7, a, 2000);
      w.recv(0, 7, b, 2000);  // the duplicate must NOT satisfy this
      order_ok = a[0] == 10.0 && b[0] == 20.0;
      try {
        w.recv(0, 7, c, 100);
      } catch (const Error& e) {
        third_times_out = e.kind() == Error::Kind::timeout;
      }
    }
  });
  rt.install_fault_plan(nullptr);
  EXPECT_EQ(plan->injected(FaultPlan::Kind::duplicate), 1u);
  EXPECT_TRUE(order_ok.load());
  EXPECT_TRUE(third_times_out.load());
}

TEST(FaultInjection, DelayedMessageStillArrivesIntact) {
  Runtime rt(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::delay;
  r.delay_ms = 50;
  r.src_world = 0;
  r.dest_world = 1;
  r.tag = 7;
  plan->add_rule(r);
  rt.install_fault_plan(plan);

  std::atomic<bool> got{false};
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) w.send(1, 7, iota(3, 5.0));
    if (w.rank() == 1) {
      std::vector<double> buf(3);
      w.recv(0, 7, buf, 5000);
      got = buf[0] == 5.0 && buf[2] == 7.0;
    }
  });
  rt.install_fault_plan(nullptr);
  EXPECT_TRUE(got.load());
  EXPECT_EQ(plan->injected(FaultPlan::Kind::delay), 1u);
}

TEST(FaultInjection, WildcardRuleNeverTouchesSystemTraffic) {
  // kAnyTag matches user tags only: collectives (negative system tags)
  // must run untouched even under a drop-everything wildcard.
  Runtime rt(4);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::drop;
  r.max_count = 0;  // unlimited
  plan->add_rule(r);
  rt.install_fault_plan(plan);

  std::atomic<int> sum{0};
  rt.run([&](Communicator& w) {
    w.barrier();
    sum += static_cast<int>(w.allreduce_sum(1.0));
  });
  rt.install_fault_plan(nullptr);
  EXPECT_EQ(sum.load(), 16);  // 4 ranks × allreduce result 4
  EXPECT_EQ(plan->injected(FaultPlan::Kind::drop), 0u);
}

TEST(FaultInjection, RendezvousPurgesInFlightTrafficThenFabricWorks) {
  Runtime rt(2);
  std::atomic<bool> purged{false};
  std::atomic<bool> fresh_ok{false};
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) {
      w.send(1, 9, iota(2, 1.0));
      w.send(1, 9, iota(2, 2.0));
      w.send(1, 9, iota(2, 3.0));
    }
    w.recovery_rendezvous(5000);  // collective: purges every mailbox
    if (w.rank() == 1) {
      std::vector<double> buf(2);
      try {
        w.recv(0, 9, buf, 100);
      } catch (const Error& e) {
        purged = e.kind() == Error::Kind::timeout;
      }
    }
    w.barrier();
    // The fabric must be fully usable after a purge.
    if (w.rank() == 0) w.send(1, 11, iota(2, 42.0));
    if (w.rank() == 1) {
      std::vector<double> buf(2);
      w.recv(0, 11, buf, 2000);
      fresh_ok = buf[0] == 42.0;
    }
  });
  EXPECT_TRUE(purged.load());
  EXPECT_TRUE(fresh_ok.load());
}

TEST(FaultInjection, MinStepGatesRuleOnFaultClock) {
  Runtime rt(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultPlan::Rule r;
  r.kind = FaultPlan::Kind::drop;
  r.src_world = 0;
  r.dest_world = 1;
  r.tag = 7;
  r.min_step = 5;
  plan->add_rule(r);
  rt.install_fault_plan(plan);

  std::atomic<bool> early_ok{false};
  std::atomic<bool> late_dropped{false};
  rt.run([&](Communicator& w) {
    if (w.rank() == 0) w.send(1, 7, iota(1, 1.0));
    if (w.rank() == 1) {
      std::vector<double> buf(1);
      w.recv(0, 7, buf, 2000);  // clock at -1: rule disarmed
      early_ok = buf[0] == 1.0;
    }
    w.barrier();
    plan->note_step(5);  // arm the rule
    if (w.rank() == 0) w.send(1, 7, iota(1, 2.0));
    if (w.rank() == 1) {
      std::vector<double> buf(1);
      try {
        w.recv(0, 7, buf, 100);
      } catch (const Error& e) {
        late_dropped = e.kind() == Error::Kind::timeout;
      }
    }
  });
  rt.install_fault_plan(nullptr);
  EXPECT_TRUE(early_ok.load());
  EXPECT_TRUE(late_dropped.load());
  EXPECT_EQ(plan->injected(FaultPlan::Kind::drop), 1u);
}

/// Tag-collision regression for the solver's ghost fills: uneven
/// delivery delays on both θ-halo directions and the overset stream
/// scramble the arrival order of every envelope, and matching must
/// still pair them by (context, source, tag) FIFO, never by arrival.
/// The halo tags (100–103) live on the panel cart communicator and the
/// overset tag (200) on the world communicator, so even equal tags
/// could never cross-match; the trajectory must come out bitwise the
/// undelayed one.
TEST(FaultInjection, DelayedSolverDeliveriesNeverCrossMatch) {
  const core::SimulationConfig cfg = testsupport::small_trajectory_config();
  const int pt = 2, pp = 1, steps = 3;
  const testsupport::RunResult clean =
      testsupport::run_case(cfg, pt, pp, steps);

  auto plan = std::make_shared<FaultPlan>();
  for (const auto& [tag, ms] : {std::pair{100, 4}, {101, 1}, {200, 2}}) {
    FaultPlan::Rule r;
    r.kind = FaultPlan::Kind::delay;
    r.tag = tag;
    r.max_count = 0;  // every envelope of the stream
    r.delay_ms = ms;
    plan->add_rule(r);
  }
  const testsupport::RunResult skewed =
      testsupport::run_case(cfg, pt, pp, steps, plan);

  EXPECT_GT(plan->injected(FaultPlan::Kind::delay), 0u);
  testsupport::expect_bitwise_equal(clean, skewed);
}

}  // namespace
}  // namespace yy::comm
