/// \file equivalence.hpp
/// Shared bitwise-trajectory-equivalence helpers for the cross-backend
/// and fault suites (RHS backends, delayed deliveries, rank-death
/// recovery, config fuzzing).  One definition of "run this
/// config on pt×pp ranks per panel and hand me the gathered end state"
/// and one definition of "these two runs are bitwise identical", so
/// the suites cannot drift apart in what they compare.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "core/distributed_solver.hpp"

namespace yy::testsupport {

/// The shared small-trajectory config: big enough to exercise both
/// panels, halo + overset exchange and every RHS term (rotation,
/// gravity, seeded B), small enough for a 10-step run per case under
/// sanitizers.  Suites tweak fields (rhs_backend, scheme) on top of it.
inline core::SimulationConfig small_trajectory_config() {
  core::SimulationConfig cfg;
  cfg.nr = 9;
  cfg.nt_core = 13;
  cfg.np_core = 37;
  cfg.eq.mu = 3e-3;
  cfg.eq.kappa = 3e-3;
  cfg.eq.eta = 3e-3;
  cfg.eq.g0 = 2.0;
  cfg.eq.omega = {0.0, 0.0, 8.0};
  cfg.ic.perturb_amp = 1e-2;
  cfg.ic.seed_b_amp = 1e-4;
  return cfg;
}

/// Gathered end-state of one run: a few representative fields (ρ, f_r,
/// p, A_r) from both panels, plus the global energy budget and dt.
struct RunResult {
  std::vector<Field3> fields;  // [panel][field] flattened, see run_case
  mhd::EnergyBudget energy{};
  double dt = 0.0;
};

inline constexpr int kFieldIndices[] = {0, 1, 4, 5};  // rho, f_r, p, A_r

/// Runs `cfg` for `steps` RK-steps on 2·pt·pp ranks (pt×pp per panel),
/// with `plan` (if any) installed on the fabric, and returns rank 0's
/// gathered RunResult.
inline RunResult run_case(const core::SimulationConfig& cfg, int pt, int pp,
                          int steps,
                          std::shared_ptr<comm::FaultPlan> plan = nullptr) {
  RunResult result;
  std::mutex mu;
  comm::Runtime rt(2 * pt * pp);
  if (plan != nullptr) rt.install_fault_plan(std::move(plan));
  rt.run([&](comm::Communicator& w) {
    core::DistributedSolver solver(cfg, w, pt, pp);
    solver.initialize();
    const double dt = solver.stable_dt();
    for (int i = 0; i < steps; ++i) solver.step(dt);
    const mhd::EnergyBudget e = solver.energies();
    std::vector<Field3> fields;
    for (yinyang::Panel p : {yinyang::Panel::yin, yinyang::Panel::yang})
      for (int fi : kFieldIndices)
        fields.push_back(solver.gather_field(fi, p));
    if (w.rank() == 0) {
      std::lock_guard lock(mu);
      result.fields = std::move(fields);
      result.energy = e;
      result.dt = dt;
    }
  });
  return result;
}

/// Bitwise equality of two runs: every gathered field value and every
/// energy reduction, with no tolerance.
inline void expect_bitwise_equal(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.fields.size(), b.fields.size());
  ASSERT_EQ(a.dt, b.dt);
  for (std::size_t f = 0; f < a.fields.size(); ++f) {
    ASSERT_TRUE(a.fields[f].same_shape(b.fields[f]));
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.fields[f].size(); ++i)
      if (a.fields[f].flat()[i] != b.fields[f].flat()[i]) ++diffs;
    EXPECT_EQ(diffs, 0u) << "gathered field slot " << f;
  }
  // Energies are reductions of identical states in identical order.
  EXPECT_EQ(a.energy.mass, b.energy.mass);
  EXPECT_EQ(a.energy.kinetic, b.energy.kinetic);
  EXPECT_EQ(a.energy.magnetic, b.energy.magnetic);
  EXPECT_EQ(a.energy.thermal, b.energy.thermal);
}

/// All eight fields of a local state, flattened for whole-state
/// comparisons (the rank-death suite compares per surviving rank).
inline std::vector<double> flatten(const mhd::Fields& s) {
  std::vector<double> out;
  for (const Field3* f : s.all())
    out.insert(out.end(), f->flat().begin(), f->flat().end());
  return out;
}

/// One gathered field's values as a flat vector.
inline std::vector<double> field_data(const Field3& f) {
  return {f.flat().begin(), f.flat().end()};
}

/// Number of positions where two equal-length flat vectors differ
/// bitwise (callers assert the sizes match first).
inline std::size_t count_diffs(const std::vector<double>& a,
                               const std::vector<double>& b) {
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (a[i] != b[i]) ++diffs;
  return diffs;
}

/// FNV-1a-64 over the raw bytes of `f`, continuing from `h` (start
/// from kFnvBasis): the hash the golden-trajectory tests pin.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t h, const Field3& f) {
  const auto* b = reinterpret_cast<const unsigned char*>(f.data());
  for (std::size_t i = 0; i < f.size() * sizeof(double); ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace yy::testsupport
