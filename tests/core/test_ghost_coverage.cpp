/// Ghost-coverage invariant: the ghost fill of each solver writes every
/// cell outside the patch interior from interior data alone.  This is
/// what lets the integrator's fused stage store (mhd/rhs.hpp
/// StageUpdate) update only the interior of a stage state: whatever its
/// ghosts held before, the fill that follows each stage overwrites all
/// of them, so the full arrays end bitwise equal to an update of every
/// cell.  Checked by poisoning every ghost with NaN: after the fill no
/// NaN is left, and the arrays equal the unpoisoned filled state.
///
/// The second input also poisons f, A and p at both wall nodes of every
/// column.  The fill runs no wall pass ahead of the horizontal
/// exchanges: the exchanges copy wall nodes only into ghost columns,
/// and the radial fill that ends the pipeline rewrites every wall node
/// from ρ alone.  Poisoned walls coming out clean pins exactly that.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

#include "baseline/latlon_solver.hpp"
#include "comm/runtime.hpp"
#include "core/distributed_solver.hpp"
#include "core/serial_solver.hpp"

namespace yy::core {
namespace {

/// Sets every cell outside g.interior() to NaN; returns how many.
std::size_t poison_ghosts(const SphericalGrid& g, mhd::Fields& s) {
  const IndexBox in = g.interior();
  std::size_t n = 0;
  for (Field3* f : s.all())
    for (int ip = 0; ip < g.Np(); ++ip)
      for (int it = 0; it < g.Nt(); ++it)
        for (int ir = 0; ir < g.Nr(); ++ir)
          if (!in.contains(ir, it, ip)) {
            (*f)(ir, it, ip) = std::numeric_limits<double>::quiet_NaN();
            ++n;
          }
  return n;
}

/// Sets f, A and p to NaN at both wall nodes (ir = gh and gh + nr − 1)
/// of every column; returns how many interior cells that poisoned.
std::size_t poison_walls(const SphericalGrid& g, mhd::Fields& s) {
  const IndexBox in = g.interior();
  std::size_t n = 0;
  for (const int iw : {g.ghost(), g.ghost() + g.spec().nr - 1})
    for (Field3* f : {&s.fr, &s.ft, &s.fp, &s.p, &s.ar, &s.at, &s.ap})
      for (int ip = 0; ip < g.Np(); ++ip)
        for (int it = 0; it < g.Nt(); ++it) {
          (*f)(iw, it, ip) = std::numeric_limits<double>::quiet_NaN();
          n += in.contains(iw, it, ip) ? 1 : 0;
        }
  return n;
}

/// The two poisoning inputs every fill is checked against.
enum class Poison { ghosts, ghosts_and_walls };

std::size_t poison(const SphericalGrid& g, mhd::Fields& s, Poison what) {
  std::size_t n = poison_ghosts(g, s);
  if (what == Poison::ghosts_and_walls) n += poison_walls(g, s);
  return n;
}

const char* name(Poison what) {
  return what == Poison::ghosts ? "ghosts" : "ghosts and walls";
}

std::size_t count_nan(const mhd::Fields& s) {
  std::size_t n = 0;
  for (const Field3* f : s.all())
    for (double v : f->flat()) n += std::isnan(v) ? 1 : 0;
  return n;
}

/// Cells where two states differ bitwise (NaN counts as different).
std::size_t count_diffs(const mhd::Fields& a, const mhd::Fields& b) {
  std::size_t n = 0;
  for (int f = 0; f < mhd::Fields::kNumFields; ++f) {
    const auto x = a.all()[f]->flat();
    const auto y = b.all()[f]->flat();
    for (std::size_t k = 0; k < x.size(); ++k) n += x[k] == y[k] ? 0 : 1;
  }
  return n;
}

TEST(GhostCoverage, SerialFillOverwritesEveryGhostCell) {
  SerialYinYangSolver s{SimulationConfig{}};
  s.initialize();
  mhd::Fields& yin = s.panel(yinyang::Panel::yin);
  mhd::Fields& yang = s.panel(yinyang::Panel::yang);
  const mhd::Fields yin0 = yin, yang0 = yang;

  for (const Poison what : {Poison::ghosts, Poison::ghosts_and_walls}) {
    SCOPED_TRACE(name(what));
    const std::size_t poisoned =
        poison(s.grid(), yin, what) + poison(s.grid(), yang, what);
    ASSERT_GT(poisoned, 0u);
    s.fill_ghosts(yin, yang);
    EXPECT_EQ(count_nan(yin) + count_nan(yang), 0u)
        << "of " << poisoned << " poisoned cells";
    EXPECT_EQ(count_diffs(yin, yin0) + count_diffs(yang, yang0), 0u);
  }
}

TEST(GhostCoverage, LatLonFillOverwritesEveryGhostCell) {
  // The lat-lon baseline steps through the same Integrator; its fill is
  // pole rows, then the φ wrap, then the walls and radial ghosts.
  baseline::LatLonSolver s{baseline::LatLonConfig{}};
  s.initialize();
  mhd::Fields& f = s.state();
  const mhd::Fields f0 = f;
  for (const Poison what : {Poison::ghosts, Poison::ghosts_and_walls}) {
    SCOPED_TRACE(name(what));
    const std::size_t poisoned = poison(s.grid(), f, what);
    ASSERT_GT(poisoned, 0u);
    s.fill_ghosts(f);
    EXPECT_EQ(count_nan(f), 0u) << "of " << poisoned << " poisoned";
    EXPECT_EQ(count_diffs(f, f0), 0u);
  }
}

class GhostCoverageDistributed
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GhostCoverageDistributed, FillOverwritesEveryGhostCellOnEveryRank) {
  const auto [pt, pp] = GetParam();
  const int world = 2 * pt * pp;
  for (const Poison what : {Poison::ghosts, Poison::ghosts_and_walls}) {
    SCOPED_TRACE(name(what));
    std::vector<std::size_t> poisoned(world), nan_left(world), diffs(world);
    comm::Runtime rt(world);
    rt.run([&](comm::Communicator& w) {
      DistributedSolver solver(SimulationConfig{}, w, pt, pp);
      solver.initialize();
      mhd::Fields& s = solver.local_state();
      const mhd::Fields s0 = s;
      const std::size_t n = poison(solver.local_grid(), s, what);
      solver.fill_ghosts(s);  // collective
      poisoned[w.rank()] = n;
      nan_left[w.rank()] = count_nan(s);
      diffs[w.rank()] = count_diffs(s, s0);
    });
    for (int r = 0; r < world; ++r) {
      SCOPED_TRACE(r);
      EXPECT_GT(poisoned[r], 0u);
      EXPECT_EQ(nan_left[r], 0u) << "of " << poisoned[r] << " poisoned";
      EXPECT_EQ(diffs[r], 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, GhostCoverageDistributed,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

}  // namespace
}  // namespace yy::core
