/// Seeded randomized differential fuzzing of the solver stack: ~20
/// random small configurations sweeping grid sizes, RHS backends
/// (reference / simd, the latter at random forced lane widths) and rank
/// layouts — each asserting
/// that the serial whole-sphere solver and the distributed solver land
/// on *bitwise* identical trajectories.  The generator is a fixed
/// master seed expanded per case, so every run covers the same corpus;
/// on failure the scoped trace prints the case's derived seed and full
/// configuration as a standalone reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/serial_solver.hpp"
#include "support/equivalence.hpp"

namespace yy::core {
namespace {

using yinyang::Panel;

constexpr std::uint64_t kMasterSeed = 0x9dce60f2a15e2bd7ull;
constexpr int kCases = 20;
constexpr int kSteps = 3;

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.next_u64() % N];
}

struct CaseSpec {
  SimulationConfig cfg;
  int pt = 1;
  int pp = 1;
  int simd_width = 0;  ///< forced lane width on the simd backend, else 0

  std::string describe(int index, std::uint64_t seed) const {
    std::ostringstream os;
    os << "fuzz case " << index << " (derived seed 0x" << std::hex << seed
       << std::dec << "): nr=" << cfg.nr << " nt_core=" << cfg.nt_core
       << " np_core=" << cfg.np_core << " backend="
       << mhd::backend_name(cfg.rhs_backend);
    if (simd_width > 0) os << " width=" << simd_width;
    os << " layout=" << pt << "x" << pp << " mu=" << cfg.eq.mu
       << " kappa=" << cfg.eq.kappa << " eta=" << cfg.eq.eta
       << " g0=" << cfg.eq.g0 << " omega_z=" << cfg.eq.omega.z
       << " ic.seed=" << cfg.ic.seed << " steps=" << kSteps;
    return os.str();
  }
};

CaseSpec random_case(std::uint64_t seed) {
  Rng rng(seed);
  CaseSpec c;

  // Grid: nr free; (nt, np) paired to keep the Yin-Yang core aspect
  // ratio the overset interpolation is built for (np ≈ 3·nt).
  static constexpr int kNr[] = {7, 8, 9, 10, 11};
  static constexpr std::pair<int, int> kHoriz[] = {{11, 31}, {13, 37},
                                                   {15, 43}};
  c.cfg.nr = pick(rng, kNr);
  const auto [nt, np] = pick(rng, kHoriz);
  c.cfg.nt_core = nt;
  c.cfg.np_core = np;

  // Physics: smooth random parameters in the regime the equivalence
  // suites use, plus a random initial-condition noise seed.
  c.cfg.eq.mu = rng.uniform(1e-3, 5e-3);
  c.cfg.eq.kappa = rng.uniform(1e-3, 5e-3);
  c.cfg.eq.eta = rng.uniform(1e-3, 5e-3);
  c.cfg.eq.g0 = rng.uniform(1.0, 3.0);
  c.cfg.eq.omega = {0.0, 0.0, rng.uniform(4.0, 10.0)};
  c.cfg.ic.perturb_amp = rng.uniform(5e-3, 2e-2);
  c.cfg.ic.seed_b_amp = rng.uniform(5e-5, 5e-4);
  c.cfg.ic.seed = rng.next_u64();

  // Execution shape: backend (× lane width) × rank layout.
  static constexpr mhd::RhsBackend kBackends[] = {mhd::RhsBackend::reference,
                                                  mhd::RhsBackend::simd};
  c.cfg.rhs_backend = pick(rng, kBackends);
  if (c.cfg.rhs_backend == mhd::RhsBackend::simd) {
    static constexpr int kWidths[] = {1, 2, 4, 8};
    c.simd_width = pick(rng, kWidths);
  }
  static constexpr std::pair<int, int> kLayouts[] = {
      {1, 1}, {1, 2}, {2, 1}, {2, 2}};
  const auto [pt, pp] = pick(rng, kLayouts);
  c.pt = pt;
  c.pp = pp;
  return c;
}

/// Serial analogue of testsupport::run_case: same field indices, both
/// panels, core-only extents (matching DistributedSolver::gather_field).
testsupport::RunResult run_serial(const SimulationConfig& cfg, int steps) {
  testsupport::RunResult result;
  SerialYinYangSolver solver(cfg);
  solver.initialize();
  result.dt = solver.stable_dt();
  for (int i = 0; i < steps; ++i) solver.step(result.dt);
  result.energy = solver.energies();
  const int gh = solver.grid().ghost();
  for (Panel p : {Panel::yin, Panel::yang}) {
    const mhd::Fields& s = solver.panel(p);
    for (int fi : testsupport::kFieldIndices) {
      const Field3& src = *s.all()[fi];
      Field3 core(src.nr() - 2 * gh, src.nt() - 2 * gh, src.np() - 2 * gh);
      for (int ip = 0; ip < core.np(); ++ip)
        for (int it = 0; it < core.nt(); ++it)
          for (int ir = 0; ir < core.nr(); ++ir)
            core(ir, it, ip) = src(ir + gh, it + gh, ip + gh);
      result.fields.push_back(std::move(core));
    }
  }
  return result;
}

TEST(ConfigFuzz, SerialAndDistributedTrajectoriesAgreeBitwise) {
  for (int i = 0; i < kCases; ++i) {
    // SplitMix-style per-case seed derivation from the fixed master.
    const std::uint64_t seed =
        kMasterSeed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    const CaseSpec c = random_case(seed);
    SCOPED_TRACE(c.describe(i, seed));

    if (c.simd_width > 0) simd::force_active_width(c.simd_width);
    const testsupport::RunResult serial = run_serial(c.cfg, kSteps);
    const testsupport::RunResult dist =
        testsupport::run_case(c.cfg, c.pt, c.pp, kSteps);
    simd::force_active_width(0);

    ASSERT_GT(serial.dt, 0.0);
    ASSERT_EQ(dist.dt, serial.dt);
    ASSERT_EQ(dist.fields.size(), serial.fields.size());
    for (std::size_t f = 0; f < serial.fields.size(); ++f) {
      ASSERT_TRUE(serial.fields[f].same_shape(dist.fields[f]))
          << "gathered field slot " << f;
      EXPECT_EQ(testsupport::count_diffs(
                    testsupport::field_data(serial.fields[f]),
                    testsupport::field_data(dist.fields[f])),
                0u)
          << "gathered field slot " << f;
    }
    // Energies are summed in different orders (hierarchical reduction
    // vs one serial pass) — only the states are bitwise invariants.
  }
}

/// The corpus must actually sweep the execution-shape axes, or a
/// generator regression could silently fuzz one backend forever.
TEST(ConfigFuzz, CorpusCoversBackendsWidthsAndLayouts) {
  bool backend_seen[2] = {false, false};
  bool width_seen[9] = {};
  bool multirank = false;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed =
        kMasterSeed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    const CaseSpec c = random_case(seed);
    backend_seen[static_cast<int>(c.cfg.rhs_backend)] = true;
    width_seen[c.simd_width] = true;
    if (c.pt * c.pp > 1) multirank = true;
  }
  EXPECT_TRUE(backend_seen[0] && backend_seen[1]);
  for (int w : {1, 2, 4, 8}) EXPECT_TRUE(width_seen[w]) << "width " << w;
  EXPECT_TRUE(multirank);
}

}  // namespace
}  // namespace yy::core
