/// Pins the scratch-memory contract of both RHS backends: a Workspace
/// allocates exactly the grown-box extents an evaluation indexes, and
/// the simd backend's pencil rings are O(depth·Nr·Nt) planes, far below
/// any box-sized volume.
#include "mhd/rhs.hpp"

#include <gtest/gtest.h>

#include "grid/analytic_fields.hpp"

namespace yy::mhd {
namespace {

using testutil::test_grid;

/// The documented allocation bound: v/T on box.grown(2), the
/// differentiated derived fields on box.grown(1), operator outputs on
/// the box itself — 4 + 7 + 8 = kWorkspaceFields scratch blocks.
std::size_t expected_workspace_doubles(const IndexBox& box) {
  const auto vol = [](const IndexBox& b) {
    return static_cast<std::size_t>(b.volume());
  };
  return 4 * vol(box.grown(2)) + 7 * vol(box.grown(1)) + 8 * vol(box);
}

TEST(WorkspaceFootprint, DefaultWorkspaceAllocatesNothing) {
  Workspace ws;
  EXPECT_EQ(ws.allocated_doubles(), 0u);
  EXPECT_FALSE(ws.covers(IndexBox{2, 3, 2, 3, 2, 3}));
}

TEST(WorkspaceFootprint, BoxWorkspaceAllocatesExactlyTheGrownExtents) {
  static_assert(kWorkspaceFields == 4 + 7 + 8);
  for (const IndexBox box : {IndexBox{2, 9, 2, 14, 2, 20},
                             IndexBox{2, 4, 2, 4, 2, 4},
                             IndexBox{3, 10, 5, 7, 2, 30}}) {
    Workspace ws(box);
    EXPECT_EQ(ws.allocated_doubles(), expected_workspace_doubles(box));
    EXPECT_TRUE(ws.covers(box));
  }
}

TEST(WorkspaceFootprint, EnsureIsMonotoneAndIdempotent) {
  const IndexBox a{2, 8, 2, 8, 2, 10};
  const IndexBox b{4, 10, 3, 9, 6, 14};
  Workspace ws(a);
  ws.ensure(b);
  EXPECT_TRUE(ws.covers(a));
  EXPECT_TRUE(ws.covers(b));
  const std::size_t grown = ws.allocated_doubles();
  ws.ensure(a);  // already covered: no reallocation
  ws.ensure(b);
  EXPECT_EQ(ws.allocated_doubles(), grown);
}

TEST(WorkspaceFootprint, GridWorkspaceCoversEveryInteriorBox) {
  const SphericalGrid g = test_grid(9);
  Workspace ws(g);
  EXPECT_EQ(ws.allocated_doubles(), expected_workspace_doubles(g.interior()));
  const IndexBox in = g.interior();
  for (const IndexBox& b : {IndexBox{in.r0, in.r1, in.t0, in.t0 + 2, in.p0,
                                     in.p1},
                            IndexBox{in.r0 + 1, in.r1, in.t0 + 1, in.t1,
                                     in.p1 - 2, in.p1}})
    EXPECT_TRUE(ws.covers(b));
}

TEST(WorkspaceFootprint, PencilWorkspaceIsPlanesNotVolumes) {
  static_assert(kPencilPlanes == 4 * 5 + 7 * 3);
  const SphericalGrid g = test_grid(14);
  const IndexBox in = g.interior();
  PencilWorkspace pw;
  pw.ensure(in);

  const auto area = [](const IndexBox& b) {
    return static_cast<std::size_t>(b.r1 - b.r0) *
           static_cast<std::size_t>(b.t1 - b.t0);
  };
  const std::size_t expected =
      4 * 5 * area(in.grown(2)) + 7 * 3 * area(in.grown(1));
  EXPECT_EQ(pw.allocated_doubles(), expected);

  // The point of the pencil sweep's memory layer: pencil scratch is a
  // small fraction of the reference path's box-sized volumes.
  EXPECT_LT(5 * pw.allocated_doubles(), expected_workspace_doubles(in));
}

}  // namespace
}  // namespace yy::mhd
