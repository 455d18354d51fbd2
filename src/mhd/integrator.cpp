#include "mhd/integrator.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace yy::mhd {

Integrator::Integrator(TimeScheme scheme,
                       const std::vector<const SphericalGrid*>& grids,
                       RhsBackend backend)
    : scheme_(scheme), backend_(backend), grids_(grids) {
  YY_REQUIRE(!grids.empty());
  if (scheme == TimeScheme::rk4) {
    rk4_ = std::make_unique<Rk4>(grids, backend);
    return;
  }
  for (const SphericalGrid* g : grids_) {
    k_.emplace_back(*g);
    if (scheme == TimeScheme::rk2) stage_.emplace_back(*g);
    if (backend_ == RhsBackend::reference) ws_.emplace_back(*g);
  }
  if (backend_ == RhsBackend::simd) pw_.resize(grids_.size());
}

void Integrator::eval_rhs(std::size_t i, const EquationParams& eq,
                          const Fields& src) {
  if (backend_ == RhsBackend::simd) {
    compute_rhs_simd(*grids_[i], eq, src, k_[i], pw_[i],
                     grids_[i]->interior());
  } else {
    compute_rhs(*grids_[i], eq, src, k_[i], ws_[i], grids_[i]->interior());
  }
}

void Integrator::step(const std::vector<PatchDef>& patches, double dt,
                      const FillFn& fill, const OverlapHooks* overlap) {
  switch (scheme_) {
    case TimeScheme::euler:
      step_euler(patches, dt, fill);
      return;
    case TimeScheme::rk2:
      step_rk2(patches, dt, fill);
      return;
    case TimeScheme::rk4:
      rk4_->step(patches, dt, fill, overlap);
      return;
  }
}

void Integrator::step_euler(const std::vector<PatchDef>& patches, double dt,
                            const FillFn& fill) {
  const std::size_t n = patches.size();
  YY_REQUIRE(n == grids_.size());
  std::vector<Fields*> state_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    YY_TRACE_SCOPE(obs::Phase::rhs);
    eval_rhs(i, patches[i].eq, *patches[i].state);
    state_ptrs[i] = patches[i].state;
  }
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) patches[i].state->axpy(dt, k_[i]);
  }
  fill(state_ptrs);
}

void Integrator::step_rk2(const std::vector<PatchDef>& patches, double dt,
                          const FillFn& fill) {
  const std::size_t n = patches.size();
  YY_REQUIRE(n == grids_.size());
  std::vector<Fields*> stage_ptrs(n), state_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    stage_ptrs[i] = &stage_[i];
    state_ptrs[i] = patches[i].state;
  }
  // Midpoint: k1 = f(y); y* = y + dt/2 k1; y ← y + dt f(y*).
  for (std::size_t i = 0; i < n; ++i) {
    {
      YY_TRACE_SCOPE(obs::Phase::rhs);
      eval_rhs(i, patches[i].eq, *patches[i].state);
    }
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    stage_[i].assign_axpy(*patches[i].state, dt / 2.0, k_[i]);
  }
  fill(stage_ptrs);
  for (std::size_t i = 0; i < n; ++i) {
    YY_TRACE_SCOPE(obs::Phase::rhs);
    eval_rhs(i, patches[i].eq, stage_[i]);
  }
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) patches[i].state->axpy(dt, k_[i]);
  }
  fill(state_ptrs);
}

}  // namespace yy::mhd
