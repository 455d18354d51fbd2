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
    stage_a_.emplace_back(*g);
    if (scheme == TimeScheme::rk4) {
      stage_b_.emplace_back(*g);
      acc_.emplace_back(*g);
    }
    // The reference backend evaluates the tendency into k_ and grows
    // its workspaces to the full patch up front; the pencil rings of
    // the simd backend size themselves on first sweep.
    if (backend_ == RhsBackend::reference) {
      k_.emplace_back(*g);
      ws_.emplace_back(*g);
    }
  }
  if (backend_ == RhsBackend::simd) pw_.resize(grids_.size());
}

void Integrator::stage(std::size_t i, const EquationParams& eq,
                       const Fields& src, const StageUpdate& upd) {
  YY_TRACE_SCOPE(obs::Phase::rhs);
  const IndexBox in = grids_[i]->interior();
  if (backend_ == RhsBackend::simd) {
    compute_stage_simd(*grids_[i], eq, src, upd, pw_[i], in);
  } else {
    compute_rhs(*grids_[i], eq, src, k_[i], ws_[i], in);
    apply_stage_update(k_[i], upd, in);
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
  std::vector<Fields*> y(n);
  // y ← y + dt f(y), staged in stage_a_ (a stage never stores into the
  // state it reads) and copied back.
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = patches[i].state;
    stage(i, patches[i].eq, *y[i], {&stage_a_[i], y[i], dt});
  }
  for (std::size_t i = 0; i < n; ++i) y[i]->copy_from(stage_a_[i]);
  fill(y);
}

void Integrator::step_rk2(const std::vector<PatchDef>& patches, double dt,
                          const FillFn& fill) {
  const std::size_t n = patches.size();
  std::vector<Fields*> y(n), s(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = patches[i].state;
    s[i] = &stage_a_[i];
  }
  // Midpoint: y* = y + dt/2 f(y); y ← y + dt f(y*).
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *y[i], {s[i], y[i], dt / 2.0});
  fill(s);
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *s[i], {y[i], y[i], dt});
  fill(y);
}

void Integrator::step_rk4(const std::vector<PatchDef>& patches, double dt,
                          const FillFn& fill) {
  const std::size_t n = patches.size();
  std::vector<Fields*> y(n), sa(n), sb(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = patches[i].state;
    sa[i] = &stage_a_[i];
    sb[i] = &stage_b_[i];
  }
  // k_s = f(stage s−1 state); the stages ping-pong y → sa → sb → sa → y
  // while acc accumulates y + dt/6 k1 + dt/3 k2 + dt/3 k3.
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *y[i],
          {sa[i], y[i], dt / 2.0, &acc_[i], y[i], dt / 6.0});
  fill(sa);
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *sa[i],
          {sb[i], y[i], dt / 2.0, &acc_[i], &acc_[i], dt / 3.0});
  fill(sb);
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *sb[i],
          {sa[i], y[i], dt, &acc_[i], &acc_[i], dt / 3.0});
  fill(sa);
  // y ← acc + dt/6 k4.
  for (std::size_t i = 0; i < n; ++i)
    stage(i, patches[i].eq, *sa[i], {y[i], &acc_[i], dt / 6.0});
  fill(y);
}

}  // namespace yy::mhd
