/// The production-kernel equivalence harness (DESIGN.md §11): the
/// pencil/lane sweep must reproduce the reference operator-at-a-time
/// chain — the one oracle — *bitwise* at every supported lane width,
/// because the per-point expression trees are the same
/// grid/fd_stencils.hpp templates instantiated over Pack<W> lanes (or,
/// at W = 1, over the scalar accessors) with FMA contraction pinned
/// off.  Covered here:
///  * Pack<W> semantics: broadcast (including −0.0), load/store
///    round-trips, strictly elementwise arithmetic vs scalar ops.
///  * Width policy: parse_width_override, the force_active_width hook,
///    and the simd backend being the SimulationConfig default.
///  * Lane sweep vs reference, bitwise: full interiors, the all-rim
///    split, threaded φ-slabs, and remainder tails — grid n=6 has a
///    radial extent of 2, so W=4/8 run all-tail rows and W=2 runs
///    exactly one pack; n=9 (extent 5) and n=14 (extent 10) mix packs
///    and tails.  The φ-slab partition tiles every box exactly.
///  * Identical flop charge and analytic lane-statistics accounting.
///  * Manufactured-solution 2nd-order convergence through the sweep at
///    width 1 and at the compiled max width.
///  * 10-step RK4 trajectories at 1/2/4 ranks per panel, sync and
///    overlapped, at widths {1, 2, compiled max} (the scalar sweep plus
///    at least two lane widths on any x86-64 build).
#include "mhd/rhs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "common/simd.hpp"
#include "core/config.hpp"
#include "grid/analytic_fields.hpp"
#include "support/equivalence.hpp"

namespace yy::mhd {
namespace {

using testutil::test_grid;

// ---------------------------------------------------------------------
// Pack<W> semantics: the lane abstraction must be strictly elementwise
// IEEE-754 double arithmetic, bitwise-identical to the scalar ops.
// ---------------------------------------------------------------------

template <int W>
void expect_pack_semantics() {
  SCOPED_TRACE(W);
  using P = simd::Pack<W>;
  static_assert(P::width == W);
  static_assert(sizeof(typename P::V) == W * sizeof(double));

  // Broadcast must be exact for every payload, including signed zero
  // (a zero-init + add would turn −0.0 into +0.0).
  for (double s : {-0.0, 1.0 / 3.0, -2.7e-308, 5.0e307}) {
    const P b(s);
    for (int i = 0; i < W; ++i) {
      const double l = b.lane(i);
      EXPECT_EQ(std::memcmp(&l, &s, sizeof(double)), 0)
          << "lane " << i << " of broadcast " << s;
    }
  }

  // Unaligned load/store round-trip, offset by one double.
  double src[W + 1], dst[W + 1];
  for (int i = 0; i < W + 1; ++i) src[i] = 0.1 * (i + 1) / 7.0;
  P::load(src + 1).store(dst + 1);
  for (int i = 1; i < W + 1; ++i) EXPECT_EQ(dst[i], src[i]);

  // Every operator, lane by lane, against the scalar expression.
  double a[W], b[W];
  for (int i = 0; i < W; ++i) {
    a[i] = std::sin(1.0 + i) / 3.0;
    b[i] = std::cos(2.0 + i) / 7.0;
  }
  const P pa = P::load(a), pb = P::load(b);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ((pa + pb).lane(i), a[i] + b[i]);
    EXPECT_EQ((pa - pb).lane(i), a[i] - b[i]);
    EXPECT_EQ((pa * pb).lane(i), a[i] * b[i]);
    EXPECT_EQ((pa / pb).lane(i), a[i] / b[i]);
    EXPECT_EQ((-pa).lane(i), -a[i]);
    // Mixed scalar⊙pack forms (what the stencil bodies use).
    EXPECT_EQ((2.0 * pa).lane(i), 2.0 * a[i]);
    EXPECT_EQ((pa - 0.5).lane(i), a[i] - 0.5);
  }
  P acc = pa;
  acc += pb;
  P acc2 = pa;
  acc2 -= pb;
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(acc.lane(i), a[i] + b[i]);
    EXPECT_EQ(acc2.lane(i), a[i] - b[i]);
  }
}

TEST(SimdPack, ElementwiseBitwiseSemanticsAtEveryWidth) {
  expect_pack_semantics<1>();
  expect_pack_semantics<2>();
  expect_pack_semantics<4>();
  expect_pack_semantics<8>();
}

// ---------------------------------------------------------------------
// Width policy.
// ---------------------------------------------------------------------

TEST(SimdWidthPolicy, ParseOverride) {
  using simd::parse_width_override;
  EXPECT_EQ(parse_width_override(nullptr, 8), 8);
  EXPECT_EQ(parse_width_override("", 8), 8);
  EXPECT_EQ(parse_width_override("scalar", 8), 1);
  EXPECT_EQ(parse_width_override("1", 8), 1);
  EXPECT_EQ(parse_width_override("2", 8), 2);
  EXPECT_EQ(parse_width_override("4", 8), 4);
  EXPECT_EQ(parse_width_override("8", 8), 8);
  // Clamped down to the compiled max, never up.
  EXPECT_EQ(parse_width_override("8", 2), 2);
  EXPECT_EQ(parse_width_override("4", 1), 1);
  // Unrecognized values fall back to the max (3 is not a pack width).
  EXPECT_EQ(parse_width_override("3", 4), 4);
  EXPECT_EQ(parse_width_override("wide", 4), 4);
}

TEST(SimdWidthPolicy, CompiledMaxAndForceHook) {
  const int max = simd::compiled_max_width();
  EXPECT_TRUE(max == 1 || max == 2 || max == 4 || max == 8);
#if defined(__x86_64__) && !defined(YY_SIMD_DISABLED)
  EXPECT_GE(max, 2) << "x86-64 guarantees SSE2 double lanes";
#endif
  const int before = simd::active_width();
  EXPECT_GE(before, 1);
  simd::force_active_width(2);
  EXPECT_EQ(simd::active_width(), 2);
  simd::force_active_width(0);
  EXPECT_EQ(simd::active_width(), before);
}

TEST(SimdWidthPolicy, SimulationConfigDefaultsToSimdBackend) {
  EXPECT_EQ(core::SimulationConfig{}.rhs_backend, RhsBackend::simd);
}

// ---------------------------------------------------------------------
// Lane sweep vs the reference chain, bitwise.
// ---------------------------------------------------------------------

void fill_smooth(const SphericalGrid& g, Fields& s) {
  testutil::fill_scalar(g, s.rho, [](const Vec3& x) {
    return 1.0 + 0.1 * std::sin(x.x) * std::cos(x.y);
  });
  testutil::fill_scalar(g, s.p, [](const Vec3& x) {
    return 1.0 + 0.05 * std::cos(2.0 * x.z);
  });
  testutil::fill_vector(g, s.fr, s.ft, s.fp, [](const Vec3& x) {
    return Vec3{0.2 * x.y, -0.1 * x.z, 0.3 * std::sin(x.x)};
  });
  testutil::fill_vector(g, s.ar, s.at, s.ap, [](const Vec3& x) {
    return Vec3{0.02 * x.z * x.z, 0.01 * x.x, 0.03 * std::cos(x.y)};
  });
}

EquationParams test_eq() {
  EquationParams eq;
  eq.mu = 2e-3;
  eq.kappa = 1e-3;
  eq.eta = 4e-3;
  eq.g0 = 1.5;
  eq.omega = {0.3, 0.0, 5.0};
  return eq;
}

void expect_fields_bitwise(const Fields& a, const Fields& b,
                           const IndexBox& box) {
  for_box(box, [&](int ir, int it, int ip) {
    for (int f = 0; f < Fields::kNumFields; ++f) {
      ASSERT_EQ((*a.all()[f])(ir, it, ip), (*b.all()[f])(ir, it, ip))
          << "field " << f << " at " << ir << "," << it << "," << ip;
    }
  });
}

constexpr int kWidths[] = {1, 2, 4, 8};

class SimdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimdSweep, MatchesReferenceBitwiseOnFullInteriorAtEveryWidth) {
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws;
  compute_rhs(g, eq, s, ref, ws, g.interior());

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields lanes(g);
    PencilWorkspace pw;
    compute_rhs_simd_width(w, g, eq, s, lanes, pw, g.interior());
    expect_fields_bitwise(ref, lanes, g.interior());
  }
}

TEST_P(SimdSweep, SplitInteriorPlusRimMatchesReferenceBitwise) {
  // On n = 6 the split interior collapses and every box is rim: the
  // lane sweep must handle arbitrary skinny boxes, not just interiors.
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws;
  compute_rhs(g, eq, s, ref, ws, g.interior());

  const RhsSplit sp = split_rhs_box(g.interior(), g.ghost());
  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields lanes(g);
    PencilWorkspace pw;
    compute_rhs_simd_width(w, g, eq, s, lanes, pw, sp.interior);
    for (const IndexBox& b : sp.rim)
      compute_rhs_simd_width(w, g, eq, s, lanes, pw, b);
    expect_fields_bitwise(ref, lanes, g.interior());
  }
}

TEST_P(SimdSweep, ThreadedSlabsMatchReferenceBitwise) {
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws;
  compute_rhs(g, eq, s, ref, ws, g.interior());

  for (int w : kWidths) {
    for (int nthreads : {1, 2, 3, 7}) {
      SCOPED_TRACE(testing::Message() << "width " << w << " threads "
                                      << nthreads);
      Fields par(g);
      std::vector<PencilWorkspace> pool;
      compute_rhs_parallel_simd_width(w, g, eq, s, par, pool, g.interior(),
                                      nthreads);
      expect_fields_bitwise(ref, par, g.interior());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, SimdSweep, ::testing::Values(6, 9, 14));

TEST(SimdRhs, ActiveWidthDispatchMatchesExplicitWidth) {
  // compute_rhs_simd (what the integrators call) must be exactly the
  // forced-width sweep.
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields direct(g), dispatched(g);
    PencilWorkspace pw1, pw2;
    compute_rhs_simd_width(w, g, eq, s, direct, pw1, g.interior());
    simd::force_active_width(w);
    compute_rhs_simd(g, eq, s, dispatched, pw2, g.interior());
    simd::force_active_width(0);
    expect_fields_bitwise(direct, dispatched, g.interior());
  }
}

TEST(SimdRhs, ChargesIdenticalFlopsPerBoxAtEveryWidth) {
  // The honest flop count is backend- and width-independent: lanes
  // change the loop shape, not the arithmetic charged per point.
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);
  Fields out(g);
  PencilWorkspace pw;
  Workspace ws;

  const RhsSplit sp = split_rhs_box(g.interior(), g.ghost());
  std::vector<IndexBox> boxes{g.interior(), sp.interior};
  boxes.insert(boxes.end(), sp.rim.begin(), sp.rim.end());
  for (const IndexBox& b : boxes) {
    if (b.volume() == 0) continue;
    flops::global_reset();
    compute_rhs(g, eq, s, out, ws, b);
    const auto ref_count = flops::global_count();
    EXPECT_GT(ref_count, 0u);
    for (int w : kWidths) {
      flops::global_reset();
      compute_rhs_simd_width(w, g, eq, s, out, pw, b);
      EXPECT_EQ(flops::global_count(), ref_count)
          << "width " << w << " box [" << b.r0 << "," << b.r1 << ")x[" << b.t0
          << "," << b.t1 << ")x[" << b.p0 << "," << b.p1 << ")";
    }
  }
}

TEST(SimdRhs, PhiSlabsTileTheBoxExactly) {
  const IndexBox box{2, 9, 2, 14, 2, 21};
  for (int n : {1, 2, 3, 7, 19}) {
    SCOPED_TRACE(n);
    int covered = box.p0;
    for (int k = 0; k < n; ++k) {
      const IndexBox slab = phi_slab(box, n, k);
      EXPECT_EQ(slab.r0, box.r0);
      EXPECT_EQ(slab.r1, box.r1);
      EXPECT_EQ(slab.t0, box.t0);
      EXPECT_EQ(slab.t1, box.t1);
      EXPECT_EQ(slab.p0, covered);  // contiguous, no gap or overlap
      EXPECT_GE(slab.p1, slab.p0);
      covered = slab.p1;
    }
    EXPECT_EQ(covered, box.p1);
  }
}

TEST(SimdRhs, LaneStatsAccountForPacksAndTails) {
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);
  Fields out(g);
  PencilWorkspace pw;

  // The sweep runs three radial-line families: the velocity/temperature
  // priming over box.grown(2) on np+4 φ-planes, the derived fields over
  // box.grown(1) on np+2 planes, and the combine over box itself.
  const IndexBox box = g.interior();
  const IndexBox e2 = box.grown(2), e1 = box.grown(1);
  const auto family = [](const IndexBox& b, std::uint64_t planes) {
    return std::pair<std::uint64_t, std::uint64_t>{
        static_cast<std::uint64_t>(b.t1 - b.t0) * planes,
        static_cast<std::uint64_t>(b.r1 - b.r0)};
  };
  const std::uint64_t np = static_cast<std::uint64_t>(box.p1 - box.p0);
  const std::pair<std::uint64_t, std::uint64_t> families[] = {
      family(e2, np + 4), family(e1, np + 2), family(box, np)};

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    simd::LaneStats want;
    for (const auto& [lines, len] : families) {
      const std::uint64_t full = len / w, tail = len % w;
      want.iterations += lines * (full + tail);
      if (w > 1) want.vector_points += lines * full * w;
      want.points += lines * len;
    }

    simd::lane_stats_reset();
    compute_rhs_simd_width(w, g, eq, s, out, pw, g.interior());
    const simd::LaneStats st = simd::lane_stats_total();
    EXPECT_EQ(st.points, want.points);
    EXPECT_EQ(st.iterations, want.iterations);
    EXPECT_EQ(st.vector_points, want.vector_points);
    if (w == 1) {
      // Scalar fallback: every trip retires one point, nothing vector.
      EXPECT_EQ(st.vector_points, 0u);
      EXPECT_EQ(st.iterations, st.points);
      EXPECT_EQ(st.avg_vector_length(), 1.0);
      EXPECT_EQ(st.vector_coverage(), 0.0);
    } else {
      // Odd extents never divide evenly: packs plus a genuine tail.
      EXPECT_GT(st.vector_points, 0u);
      EXPECT_GT(st.avg_vector_length(), 1.0);
      EXPECT_LT(st.avg_vector_length(), static_cast<double>(w));
      EXPECT_GT(st.vector_coverage(), 0.0);
      EXPECT_LT(st.vector_coverage(), 1.0);
    }
  }
  simd::lane_stats_reset();
}

// ---------------------------------------------------------------------
// Manufactured-solution convergence through the pencil sweep: the same
// second-order slopes tests/grid/test_fd_convergence.cpp pins for the
// standalone operators, measured on compute_rhs_simd outputs at the
// active width (the test sets it to 1 and to the compiled max).
// ---------------------------------------------------------------------

double wavy(const Vec3& x) {
  return std::sin(1.3 * x.x) * std::cos(0.7 * x.y) + std::sin(0.9 * x.z);
}
double wavy_lap(const Vec3& x) {
  return -(1.3 * 1.3 + 0.7 * 0.7) * std::sin(1.3 * x.x) * std::cos(0.7 * x.y) -
         0.81 * std::sin(0.9 * x.z);
}
Vec3 wavy_vec(const Vec3& x) {
  return {std::sin(x.y), std::sin(x.z), std::sin(x.x)};
}

/// RHS of a state at rest with p = 4 + wavy: only (γ−1)κ∇²T survives
/// (packs *and* tails on these odd-sized grids above width 1).
double pressure_diffusion_error_simd(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.kappa = 0.7;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3& x) { return 4.0 + wavy(x); });
  PencilWorkspace pw;
  compute_rhs_simd(g, eq, s, rhs, pw, g.interior());
  const double gm1 = eq.gamma - 1.0;
  return testutil::max_error(g, rhs.p, g.interior(),
                             [&](int ir, int it, int ip) {
                               return gm1 * eq.kappa *
                                      wavy_lap(testutil::cart_of(g, ir, it, ip));
                             });
}

/// Divergence-free momentum through the SIMD continuity channel.
double continuity_error_simd(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.fr, s.ft, s.fp, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_simd(g, eq, s, rhs, pw, g.interior());
  return testutil::max_error(g, rhs.rho, g.interior(),
                             [](int, int, int) { return 0.0; });
}

/// A = (sin y, sin z, sin x) ⇒ j = A, so ∂A/∂t → −ηA through the SIMD
/// induction channel.
double induction_error_simd(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.eta = 0.4;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.ar, s.at, s.ap, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_simd(g, eq, s, rhs, pw, g.interior());
  double err = 0.0;
  for_box(g.interior(), [&](int ir, int it, int ip) {
    const Vec3 e = testutil::to_spherical(
        g, it, ip, wavy_vec(testutil::cart_of(g, ir, it, ip)) * (-eq.eta));
    err = std::max({err, std::abs(rhs.ar(ir, it, ip) - e.x),
                    std::abs(rhs.at(ir, it, ip) - e.y),
                    std::abs(rhs.ap(ir, it, ip) - e.z)});
  });
  return err;
}

class SimdConvergence : public ::testing::TestWithParam<double (*)(int)> {};

TEST_P(SimdConvergence, SecondOrderRatioBetweenRefinements) {
  // error(n) ~ C h² with h ∝ 1/(n−1): refining n−1 by 2× must shrink
  // the error by ≈4×; accept ≥3× to absorb higher-order terms.
  const auto err = GetParam();
  for (int w : {1, simd::compiled_max_width()}) {
    SCOPED_TRACE(w);
    simd::force_active_width(w);
    const double e1 = err(13);
    const double e2 = err(25);  // h halves (12 -> 24 intervals)
    simd::force_active_width(0);
    EXPECT_GT(e1 / e2, 3.0) << "coarse=" << e1 << " fine=" << e2;
    EXPECT_LT(e2, e1);
  }
}

INSTANTIATE_TEST_SUITE_P(ManufacturedSolutions, SimdConvergence,
                         ::testing::Values(&pressure_diffusion_error_simd,
                                           &continuity_error_simd,
                                           &induction_error_simd));

// ---------------------------------------------------------------------
// Trajectory equivalence: 10 RK4 steps of the distributed solver on the
// simd backend must land on the reference trajectory bitwise, in the
// synchronous and the overlapped stepping mode, at 1, 2 and 4 ranks per
// panel — swept over widths {1, 2, compiled max} via the
// force_active_width hook, which covers the scalar fallback plus at
// least two genuine lane widths on any x86-64 build.  (YY_THREADS=2
// from the ctest registration makes the overlapped runs exercise the
// threaded lane sweep too.)
// ---------------------------------------------------------------------

using testsupport::expect_bitwise_equal;
using testsupport::run_case;
using testsupport::RunResult;

std::vector<int> trajectory_widths() {
  std::vector<int> ws{1, 2, simd::compiled_max_width()};
  std::sort(ws.begin(), ws.end());
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
  return ws;
}

class SimdTrajectory : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SimdTrajectory, BitwiseEqualToReferenceInSyncAndOverlapModes) {
  const auto [pt, pp] = GetParam();
  const int steps = 10;
  core::SimulationConfig cfg = testsupport::small_trajectory_config();

  cfg.rhs_backend = RhsBackend::reference;
  cfg.overlap = false;
  const RunResult ref = run_case(cfg, pt, pp, steps);
  ASSERT_GT(ref.dt, 0.0);

  cfg.rhs_backend = RhsBackend::simd;
  for (int w : trajectory_widths()) {
    SCOPED_TRACE(testing::Message() << "width " << w);
    simd::force_active_width(w);
    cfg.overlap = false;
    const RunResult simd_sync = run_case(cfg, pt, pp, steps);
    expect_bitwise_equal(ref, simd_sync);
    cfg.overlap = true;
    const RunResult simd_over = run_case(cfg, pt, pp, steps);
    expect_bitwise_equal(ref, simd_over);
    simd::force_active_width(0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankLayouts, SimdTrajectory,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

}  // namespace
}  // namespace yy::mhd
