#include "mhd/rk4.hpp"

#include "common/error.hpp"
#include "common/microtask.hpp"
#include "obs/trace.hpp"

namespace yy::mhd {

Rk4::Rk4(const std::vector<const SphericalGrid*>& grids, RhsBackend backend)
    : grids_(grids), backend_(backend) {
  YY_REQUIRE(!grids.empty());
  k_.reserve(grids.size());
  stage_.reserve(grids.size());
  acc_.reserve(grids.size());
  for (const SphericalGrid* g : grids) {
    k_.emplace_back(*g);
    stage_.emplace_back(*g);
    acc_.emplace_back(*g);
    // Pre-grow the reference workspaces to the full patch; the pencil
    // rings of the simd backend size themselves on first sweep.
    if (backend_ == RhsBackend::reference) ws_.emplace_back(*g);
  }
  if (backend_ == RhsBackend::reference) {
    ws_pool_.resize(grids.size());  // grown on demand by the overlap path
  } else {
    pw_.resize(grids.size());
    pw_pool_.resize(grids.size());
  }
}

void Rk4::step(const std::vector<PatchDef>& patches, double dt,
               const FillFn& fill, const OverlapHooks* overlap) {
  const std::size_t n = patches.size();
  YY_REQUIRE(n == grids_.size());

  std::vector<Fields*> stage_ptrs(n);
  std::vector<Fields*> state_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    YY_REQUIRE(patches[i].grid == grids_[i]);
    stage_ptrs[i] = &stage_[i];
    state_ptrs[i] = patches[i].state;
  }

  const int nthreads = overlap ? common::env_threads() : 1;

  // Backend dispatch: the two paths are bitwise equivalent (rhs.hpp),
  // they differ only in scratch shape and sweep structure.
  auto rhs_box = [&](std::size_t i, const Fields& src, const IndexBox& box) {
    if (backend_ == RhsBackend::simd) {
      compute_rhs_simd(*grids_[i], patches[i].eq, src, k_[i], pw_[i], box);
    } else {
      compute_rhs(*grids_[i], patches[i].eq, src, k_[i], ws_[i], box);
    }
  };
  auto rhs_box_parallel = [&](std::size_t i, const Fields& src,
                              const IndexBox& box) {
    if (backend_ == RhsBackend::simd) {
      compute_rhs_parallel_simd(*grids_[i], patches[i].eq, src, k_[i],
                                pw_pool_[i], box, nthreads);
    } else {
      compute_rhs_parallel(*grids_[i], patches[i].eq, src, k_[i], ws_pool_[i],
                           box, nthreads);
    }
  };

  // k_[i] = f(src[i]) over the full interior; the stage-1 evaluation
  // and the synchronous path for stages 2-4.
  auto rhs_full = [&](const std::vector<Fields*>& src) {
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::rhs);
      if (nthreads > 1) {
        rhs_box_parallel(i, *src[i], grids_[i]->interior());
      } else {
        rhs_box(i, *src[i], grids_[i]->interior());
      }
    }
  };

  // Refresh the ghosts of `src`, then k_[i] = f(src[i]).  Overlapped:
  // post the exchanges, evaluate the rim-shrunk interior while the
  // messages fly, complete the exchanges, evaluate the rim.  Each box
  // is an independent pointwise sweep, so interior + rim is bitwise
  // the monolithic evaluation.
  auto fill_then_rhs = [&](const std::vector<Fields*>& src) {
    if (overlap == nullptr) {
      fill(src);
      rhs_full(src);
      return;
    }
    overlap->post(src);
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::interior_rhs);
      const RhsSplit sp =
          split_rhs_box(grids_[i]->interior(), overlap->rim_width);
      rhs_box_parallel(i, *src[i], sp.interior);
    }
    overlap->finish(src);
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::rim_rhs);
      const RhsSplit sp =
          split_rhs_box(grids_[i]->interior(), overlap->rim_width);
      for (const IndexBox& b : sp.rim) rhs_box(i, *src[i], b);
    }
  };

  // Stage 1: k1 = f(y) (incoming ghosts are valid; nothing to overlap).
  rhs_full(state_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].copy_from(*patches[i].state);
      acc_[i].axpy(dt / 6.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt / 2.0, k_[i]);
    }
  }

  // Stage 2: k2 = f(y + dt/2 k1).
  fill_then_rhs(stage_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].axpy(dt / 3.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt / 2.0, k_[i]);
    }
  }

  // Stage 3: k3 = f(y + dt/2 k2).
  fill_then_rhs(stage_ptrs);
  {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) {
      acc_[i].axpy(dt / 3.0, k_[i]);
      stage_[i].assign_axpy(*patches[i].state, dt, k_[i]);
    }
  }

  // Stage 4: k4 = f(y + dt k3); y ← acc + dt/6 k4.
  fill_then_rhs(stage_ptrs);
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
