#include "mhd/integrator.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace yy::mhd {

Integrator::Integrator(TimeScheme scheme,
                       const std::vector<const SphericalGrid*>& grids,
                       RhsBackend backend)
    : scheme_(scheme), backend_(backend), grids_(grids) {
  YY_REQUIRE(!grids.empty());
  for (const SphericalGrid* g : grids_) {
    k_.emplace_back(*g);
    if (scheme != TimeScheme::euler) stage_.emplace_back(*g);
    if (scheme == TimeScheme::rk4) acc_.emplace_back(*g);
    // Pre-grow the reference workspaces to the full patch; the pencil
    // rings of the simd backend size themselves on first sweep.
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
                      const FillFn& fill) {
  YY_REQUIRE(patches.size() == grids_.size());
  for (std::size_t i = 0; i < patches.size(); ++i)
    YY_REQUIRE(patches[i].grid == grids_[i]);
  switch (scheme_) {
    case TimeScheme::euler:
      step_euler(patches, dt, fill);
      return;
    case TimeScheme::rk2:
      step_rk2(patches, dt, fill);
      return;
    case TimeScheme::rk4:
      step_rk4(patches, dt, fill);
      return;
  }
}

void Integrator::step_euler(const std::vector<PatchDef>& patches, double dt,
                            const FillFn& fill) {
  const std::size_t n = patches.size();
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

void Integrator::step_rk4(const std::vector<PatchDef>& patches, double dt,
                          const FillFn& fill) {
  const std::size_t n = patches.size();
  std::vector<Fields*> stage_ptrs(n), state_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    stage_ptrs[i] = &stage_[i];
    state_ptrs[i] = patches[i].state;
  }

  // k_[i] = f(src[i]) over every patch's interior.
  const auto rhs_all = [&](const std::vector<Fields*>& src) {
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::rhs);
      eval_rhs(i, patches[i].eq, *src[i]);
    }
  };

  // Stage 1: k1 = f(y) (the incoming ghosts are valid).
  rhs_all(state_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].copy_from(*patches[i].state);
      acc_[i].axpy(dt / 6.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt / 2.0, k_[i]);
    }
  }

  // Stage 2: k2 = f(y + dt/2 k1).
  fill(stage_ptrs);
  rhs_all(stage_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].axpy(dt / 3.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt / 2.0, k_[i]);
    }
  }

  // Stage 3: k3 = f(y + dt/2 k2).
  fill(stage_ptrs);
  rhs_all(stage_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].axpy(dt / 3.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt, k_[i]);
    }
  }

  // Stage 4: k4 = f(y + dt k3); y ← acc + dt/6 k4.
  fill(stage_ptrs);
  rhs_all(stage_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      patches[i].state->copy_from(acc_[i]);
      patches[i].state->axpy(dt / 6.0, k_[i]);
    }
  }
  fill(state_ptrs);
}

}  // namespace yy::mhd
