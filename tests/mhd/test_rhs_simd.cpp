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
///  * Lane sweep vs reference, bitwise: full interiors, skinny shell
///    boxes, and remainder tails — grid n=6 has a radial extent of 2,
///    so W=4/8 run all-tail rows and W=2 runs exactly one pack; n=9
///    (extent 5) and n=14 (extent 10) mix packs and tails.
///  * Fused stage store vs compute_rhs + apply_stage_update, bitwise,
///    for every update form (with and without an accumulator, in-place
///    accumulator, out == base, plain store), on the same grids and
///    shell tilings; out or acc aliasing the source is rejected.
///  * Identical flop charge, and lane statistics counted by the sweep's
///    own loops against packs and tails predicted from the box shapes
///    (plus exact per-width pins on the kernel-profile grid).
///  * Manufactured-solution 2nd-order convergence through the sweep at
///    width 1 and at the compiled max width.
///  * 10-step RK4 trajectories (fused simd vs reference integrator) at
///    1/2/4 ranks per panel, at widths {1, 2, compiled max} (the scalar
///    sweep plus at least two lane widths on any x86-64 build).
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
#include "perf/kernel_profile.hpp"
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

/// Tiles `box` into an inner box shrunk by `rim` in θ and φ plus up to
/// four shell boxes around it (empty pieces dropped) — skinny sweep
/// boxes for the kernel.  On n = 6 the inner box collapses and every
/// piece is shell.
std::vector<IndexBox> shell_tiling(const IndexBox& box, int rim) {
  const int t_lo = std::min(box.t1, box.t0 + rim);
  const int t_hi = std::max(t_lo, box.t1 - rim);
  const int p_lo = std::min(box.p1, box.p0 + rim);
  const int p_hi = std::max(p_lo, box.p1 - rim);
  std::vector<IndexBox> pieces;
  for (const IndexBox& b :
       {IndexBox{box.r0, box.r1, t_lo, t_hi, p_lo, p_hi},
        IndexBox{box.r0, box.r1, box.t0, t_lo, box.p0, box.p1},
        IndexBox{box.r0, box.r1, t_hi, box.t1, box.p0, box.p1},
        IndexBox{box.r0, box.r1, t_lo, t_hi, box.p0, p_lo},
        IndexBox{box.r0, box.r1, t_lo, t_hi, p_hi, box.p1}})
    if (b.volume() > 0) pieces.push_back(b);
  return pieces;
}

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

TEST_P(SimdSweep, ShellTilingMatchesReferenceBitwise) {
  // The lane sweep must handle arbitrary skinny boxes, not just
  // interiors.
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
    for (const IndexBox& b : shell_tiling(g.interior(), g.ghost()))
      compute_rhs_simd_width(w, g, eq, s, lanes, pw, b);
    expect_fields_bitwise(ref, lanes, g.interior());
  }
}

/// Distinct, position-dependent values in every cell (ghosts included)
/// so a misplaced, missing or out-of-box store shows.
void fill_pattern(Fields& s, double scale) {
  int f = 0;
  for (Field3* x : s.all()) {
    auto d = x->flat();
    for (std::size_t k = 0; k < d.size(); ++k)
      d[k] = scale * (1.0 + 0.37 * f + 1e-3 * static_cast<double>(k));
    ++f;
  }
}

/// The StageUpdate forms: the ones Integrator uses, plus the plain
/// store behind compute_rhs_simd_width.
enum class Form {
  both,          ///< rk4 stage 1: out and acc from separate bases
  acc_in_place,  ///< rk4 stages 2-3: acc_base == acc
  no_acc,        ///< rk4 stage 4, euler, rk2 stage 1
  out_is_base,   ///< rk2 stage 2: out == base
  plain,         ///< out = v
};
constexpr Form kForms[] = {Form::both, Form::acc_in_place, Form::no_acc,
                           Form::out_is_base, Form::plain};

/// x + a·y updates each form charges per point.
std::uint64_t charged_updates(Form f) {
  switch (f) {
    case Form::both:
    case Form::acc_in_place: return 2;
    case Form::no_acc:
    case Form::out_is_base: return 1;
    case Form::plain: return 0;
  }
  return 0;
}

/// One set of update targets, every cell pre-filled.
struct StageTargets {
  Fields out, acc, base, acc_base;
  explicit StageTargets(const SphericalGrid& g)
      : out(g), acc(g), base(g), acc_base(g) {
    fill_pattern(out, 7.0);
    fill_pattern(acc, -9.0);
    fill_pattern(base, 2.0);
    fill_pattern(acc_base, 3.0);
  }
  StageUpdate update(Form f) {
    const double a = 0.125, b = 1.0 / 3.0;
    switch (f) {
      case Form::both: return {&out, &base, a, &acc, &acc_base, b};
      case Form::acc_in_place: return {&out, &base, a, &acc, &acc, b};
      case Form::no_acc: return {&out, &base, a};
      case Form::out_is_base: return {&out, &out, a};
      case Form::plain: return {&out};
    }
    return {};
  }
};

IndexBox whole(const SphericalGrid& g) {
  return {0, g.Nr(), 0, g.Nt(), 0, g.Np()};
}

TEST_P(SimdSweep, StageStoreMatchesReferenceUpdateBitwiseAtEveryWidth) {
  // The fused store must equal compute_rhs followed by the reference
  // update loop bit for bit — interior stores and untouched ghosts —
  // over the full interior and over a shell tiling of it.
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);
  Fields k(g);
  Workspace ws;
  compute_rhs(g, eq, s, k, ws, g.interior());

  for (Form form : kForms) {
    SCOPED_TRACE(static_cast<int>(form));
    StageTargets ref(g);
    apply_stage_update(k, ref.update(form), g.interior());
    for (int w : kWidths) {
      SCOPED_TRACE(w);
      for (bool tiled : {false, true}) {
        SCOPED_TRACE(tiled ? "shell tiling" : "full interior");
        StageTargets fused(g);
        PencilWorkspace pw;
        const std::vector<IndexBox> boxes =
            tiled ? shell_tiling(g.interior(), g.ghost())
                  : std::vector<IndexBox>{g.interior()};
        for (const IndexBox& b : boxes)
          compute_stage_simd_width(w, g, eq, s, fused.update(form), pw, b);
        expect_fields_bitwise(ref.out, fused.out, whole(g));
        expect_fields_bitwise(ref.acc, fused.acc, whole(g));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, SimdSweep, ::testing::Values(6, 9, 14));

TEST(SimdStageDeathTest, RejectsAStoreIntoTheSource) {
  // The sweep reads source planes up to ip+2 after storing plane ip, so
  // neither out nor acc may be the source.  YY_REQUIRE aborts.
  const SphericalGrid g = test_grid(6);
  const EquationParams eq = test_eq();
  Fields s(g), other(g);
  fill_smooth(g, s);
  PencilWorkspace pw;
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&s, &s, 0.5}, pw, g.interior()),
               "precondition");
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&other, &s, 0.5, &s, &s, 0.5},
                                  pw, g.interior()),
               "precondition");
}

TEST(SimdStageDeathTest, RejectsAnArrayOfAnotherShape) {
  // The sweep addresses every array through the source state's strides,
  // so a state, stage target, base or accumulator of another shape
  // aborts instead of being read or written out of bounds.
  const SphericalGrid g = test_grid(6), h = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g), out(g), base(g), acc(g), wrong(h);
  fill_smooth(g, s);
  PencilWorkspace pw;
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&wrong}, pw, g.interior()),
               "precondition");
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&out, &wrong, 0.5}, pw,
                                  g.interior()),
               "precondition");
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&out, &base, 0.5, &wrong, &s,
                                             0.5},
                                  pw, g.interior()),
               "precondition");
  EXPECT_DEATH(compute_stage_simd(g, eq, s, {&out, &base, 0.5, &acc,
                                             &wrong, 0.5},
                                  pw, g.interior()),
               "precondition");
  EXPECT_DEATH(compute_stage_simd(h, eq, s, {&wrong}, pw, h.interior()),
               "precondition");
  // The same update over matching shapes runs.
  compute_stage_simd(g, eq, s, {&out, &base, 0.5, &acc, &s, 0.5}, pw,
                     g.interior());
}

TEST(SimdRhs, ActiveWidthDispatchMatchesExplicitWidth) {
  // compute_stage_simd (what the integrator calls) must be exactly the
  // forced-width sweep.
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    StageTargets direct(g), dispatched(g);
    PencilWorkspace pw1, pw2;
    compute_stage_simd_width(w, g, eq, s, direct.update(Form::both), pw1,
                             g.interior());
    simd::force_active_width(w);
    compute_stage_simd(g, eq, s, dispatched.update(Form::both), pw2,
                       g.interior());
    simd::force_active_width(0);
    expect_fields_bitwise(direct.out, dispatched.out, whole(g));
    expect_fields_bitwise(direct.acc, dispatched.acc, whole(g));
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

  std::vector<IndexBox> boxes = shell_tiling(g.interior(), g.ghost());
  boxes.push_back(g.interior());
  for (const IndexBox& b : boxes) {
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
    // The fused store charges what compute_rhs + apply_stage_update do:
    // kFlopsStageUpdate per box point for each of out and acc.
    for (Form form : kForms) {
      StageTargets t(g);
      flops::global_reset();
      apply_stage_update(out, t.update(form), b);
      const auto upd_count = flops::global_count();
      EXPECT_EQ(upd_count, static_cast<std::uint64_t>(b.volume()) *
                               kFlopsStageUpdate * charged_updates(form));
      for (int w : kWidths) {
        flops::global_reset();
        compute_stage_simd_width(w, g, eq, s, t.update(form), pw, b);
        EXPECT_EQ(flops::global_count(), ref_count + upd_count)
            << "form " << static_cast<int>(form) << " width " << w;
      }
    }
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

  // The kernel-profile grid (perf::KernelProfile::measure(17, 13, 37):
  // one timed RK4 step, 2 panels × 4 stages), pinned per width.  At
  // W = 8 the ratios are AVL 3.669190008 and coverage 0.8313831825 to
  // ten digits.
  struct Pin {
    int w;
    std::uint64_t iterations, vector_points, points;
  };
  constexpr Pin kProfilePins[] = {{1, 271432, 0, 271432},
                                  {2, 142768, 257328, 271432},
                                  {4, 85456, 247968, 271432},
                                  {8, 73976, 225664, 271432}};
  for (const Pin& pin : kProfilePins) {
    SCOPED_TRACE(pin.w);
    simd::force_active_width(pin.w);
    const perf::KernelProfile p = perf::KernelProfile::measure(17, 13, 37);
    simd::force_active_width(0);
    // measure() resets the counts before its timed step only.
    const simd::LaneStats st = simd::lane_stats_total();
    EXPECT_EQ(st.iterations, pin.iterations);
    EXPECT_EQ(st.vector_points, pin.vector_points);
    EXPECT_EQ(st.points, pin.points);
    EXPECT_EQ(p.simd_width, pin.w);
    EXPECT_DOUBLE_EQ(p.simd_avg_vector_length,
                     static_cast<double>(pin.points) /
                         static_cast<double>(pin.iterations));
    EXPECT_DOUBLE_EQ(p.simd_vector_coverage,
                     static_cast<double>(pin.vector_points) /
                         static_cast<double>(pin.points));
  }
  simd::lane_stats_reset();
}

// ---------------------------------------------------------------------
// Manufactured-solution convergence through the pencil sweep: the same
// second-order slopes tests/grid/test_fd_convergence.cpp pins for the
// standalone operators, measured on compute_rhs_simd_width outputs at the
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
  compute_rhs_simd_width(simd::active_width(), g, eq, s, rhs, pw,
                         g.interior());
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
  compute_rhs_simd_width(simd::active_width(), g, eq, s, rhs, pw,
                         g.interior());
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
  compute_rhs_simd_width(simd::active_width(), g, eq, s, rhs, pw,
                         g.interior());
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
// simd backend must land on the reference trajectory bitwise at 1, 2
// and 4 ranks per panel — swept over widths {1, 2, compiled max} via
// the force_active_width hook, which covers the scalar fallback plus at
// least two genuine lane widths on any x86-64 build.
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

TEST_P(SimdTrajectory, BitwiseEqualToReference) {
  const auto [pt, pp] = GetParam();
  const int steps = 10;
  core::SimulationConfig cfg = testsupport::small_trajectory_config();

  cfg.rhs_backend = RhsBackend::reference;
  const RunResult ref = run_case(cfg, pt, pp, steps);
  ASSERT_GT(ref.dt, 0.0);

  cfg.rhs_backend = RhsBackend::simd;
  for (int w : trajectory_widths()) {
    SCOPED_TRACE(testing::Message() << "width " << w);
    simd::force_active_width(w);
    expect_bitwise_equal(ref, run_case(cfg, pt, pp, steps));
    simd::force_active_width(0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankLayouts, SimdTrajectory,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

}  // namespace
}  // namespace yy::mhd
