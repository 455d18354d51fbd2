/// \file integrator.hpp
/// Explicit time integrators for the MHD system.  The paper uses the
/// classical fourth-order Runge-Kutta method (§III); forward Euler and
/// the midpoint (RK2) scheme are provided for ablation and for the
/// temporal-convergence tests that pin each scheme's order.
///
/// Shares the PatchDef / fill-callback contract of rk4.hpp: after every
/// stage the caller re-establishes ghost data on the stage states.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "grid/spherical_grid.hpp"
#include "mhd/rhs.hpp"
#include "mhd/rk4.hpp"

namespace yy::mhd {

enum class TimeScheme {
  euler,  ///< forward Euler (1st order)
  rk2,    ///< explicit midpoint (2nd order)
  rk4,    ///< classical Runge-Kutta (4th order, the paper's choice)
};

/// Formal order of accuracy of a scheme.
constexpr int scheme_order(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return 1;
    case TimeScheme::rk2: return 2;
    case TimeScheme::rk4: return 4;
  }
  return 0;
}

constexpr const char* scheme_name(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return "euler";
    case TimeScheme::rk2: return "rk2";
    case TimeScheme::rk4: return "rk4";
  }
  return "?";
}

class Integrator {
 public:
  using FillFn = Rk4::FillFn;

  Integrator(TimeScheme scheme, const std::vector<const SphericalGrid*>& grids,
             RhsBackend backend);

  TimeScheme scheme() const { return scheme_; }
  RhsBackend backend() const { return backend_; }

  /// Advances every patch by dt (see Rk4::step for the contract).
  /// `overlap` (optional) enables the overlapped stage fills; it is
  /// honoured by the rk4 scheme only — euler/rk2 fall back to the
  /// synchronous fill, which the hooks contract guarantees equivalent.
  void step(const std::vector<PatchDef>& patches, double dt,
            const FillFn& fill, const OverlapHooks* overlap = nullptr);

 private:
  void step_euler(const std::vector<PatchDef>& patches, double dt,
                  const FillFn& fill);
  void step_rk2(const std::vector<PatchDef>& patches, double dt,
                const FillFn& fill);

  /// k_[i] = f(src) over patch i's interior via the selected backend.
  void eval_rhs(std::size_t i, const EquationParams& eq, const Fields& src);

  TimeScheme scheme_;
  RhsBackend backend_;
  std::vector<const SphericalGrid*> grids_;
  std::vector<Fields> k_, stage_;
  std::vector<Workspace> ws_;        // reference backend
  std::vector<PencilWorkspace> pw_;  // simd backend
  std::unique_ptr<Rk4> rk4_;  // reused for the rk4 scheme
};

}  // namespace yy::mhd
