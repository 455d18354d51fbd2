#include "perf/kernel_profile.hpp"

#include <gtest/gtest.h>

namespace yy::perf {
namespace {

TEST(KernelProfile, MeasuresPositiveFlopsPerPoint) {
  const KernelProfile p = KernelProfile::measure();
  // One RK4 step = 4 RHS evaluations of a multi-operator MHD kernel.
  // The charge is a property of the numerics, not of the machine: at
  // the default (17, 13, 37) grid it is exactly this value (1995.385105
  // to the digits the profile has always reported), and it moves only
  // when a stencil or its flop table changes.
  EXPECT_DOUBLE_EQ(p.flops_per_point_per_step, 1995.3851045615752);
  EXPECT_GT(p.local_gflops, 0.0);
  EXPECT_GT(p.seconds_per_point_per_step, 0.0);
}

TEST(KernelProfile, FlopsPerPointStableAcrossResolutions) {
  // The claim the Table II bench relies on: flops/point/step is a
  // property of the algorithm, not of the grid size (ghost-overhead
  // effects stay within ~40% at these tiny sizes).
  const KernelProfile small = KernelProfile::measure(13, 11, 31);
  const KernelProfile big = KernelProfile::measure(21, 17, 49);
  EXPECT_NEAR(small.flops_per_point_per_step / big.flops_per_point_per_step,
              1.0, 0.4);
}

TEST(KernelProfile, RepeatedMeasurementsIdenticalFlops) {
  const KernelProfile a = KernelProfile::measure(13, 11, 31);
  const KernelProfile b = KernelProfile::measure(13, 11, 31);
  EXPECT_DOUBLE_EQ(a.flops_per_point_per_step, b.flops_per_point_per_step);
}

}  // namespace
}  // namespace yy::perf
