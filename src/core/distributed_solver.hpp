/// \file distributed_solver.hpp
/// The flat-MPI yycore solver of paper §IV: one rank = one patch of one
/// panel.  World splits into Yin/Yang panel groups, each panel is
/// decomposed pt × pp in (θ, φ), halo exchange runs inside the panel's
/// cartesian communicator and overset interpolation traffic crosses
/// panels under the world communicator.  Distributed trajectories
/// match the serial reference solver to floating-point roundoff.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "core/decomposition.hpp"
#include "core/halo.hpp"
#include "core/overset_exchange.hpp"
#include "core/runner.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/boundary.hpp"
#include "mhd/diagnostics.hpp"
#include "mhd/integrator.hpp"
#include "yinyang/geometry.hpp"
#include "yinyang/interpolator.hpp"

namespace yy::obs {
class RankTelemetry;
}

namespace yy::core {

class DistributedSolver {
 public:
  /// Collective over `world` (size must be 2·pt·pp).
  DistributedSolver(const SimulationConfig& cfg,
                    const comm::Communicator& world, int pt, int pp);

  /// Collective over `world` with asymmetric per-panel layouts (world
  /// size = yin.size() + yang.size()) — the layout a shrink-to-survive
  /// recovery leaves behind, constructible directly for reference runs.
  DistributedSolver(const SimulationConfig& cfg,
                    const comm::Communicator& world, PanelLayout yin,
                    PanelLayout yang);

  void initialize();
  void step(double dt);

  /// Collective: global CFL dt (allreduce-min across all ranks).
  double stable_dt();

  /// Collective: globally weighted energies (overlap counted once).
  mhd::EnergyBudget energies();

  /// Collective: assembles a panel-interior global field on world rank
  /// 0 (empty elsewhere); layout (nr, panel_nt, panel_np), r fastest.
  Field3 gather_field(int field_index, yinyang::Panel p);

  const Runner& runner() const { return *runner_; }
  const SphericalGrid& local_grid() const { return *grid_; }
  const PatchExtent& extent() const { return extent_; }
  const yinyang::ComponentGeometry& geometry() const { return geom_; }
  mhd::Fields& local_state() { return *state_; }
  const mhd::Fields& local_state() const { return *state_; }
  const HaloExchanger& halo() const { return *halo_; }
  const OversetExchanger& overset() const { return *overset_; }
  long long steps_taken() const { return steps_; }
  double time() const { return time_; }

  /// Restores this rank's full local arrays (ghosts included) plus the
  /// clock from a checkpoint; shapes must match.  Restart is bit-exact:
  /// the arrays are exactly what the uninterrupted run held after step
  /// `step` (rank-local, no communication).
  void restore_state(const mhd::Fields& s, double time, long long step);

  /// Where rebuild() finds every old rank's snapshot after a shrink.
  struct RebuildSource {
    long long step = 0;  ///< solver step the snapshots were taken at
    double time = 0.0;   ///< solver time at that step
    /// For each OLD world rank, the OLD world rank whose survivor now
    /// serves that patch: identity for survivors, the buddy holder for
    /// dead ranks.
    std::vector<int> holder_of;
    /// Decodes old rank `w`'s snapshot into `out` (shaped as w's old
    /// patch full arrays); false when it cannot be served.
    std::function<bool(int w, mhd::Fields& out)> load;
  };

  /// Collective over `new_world` (the communicator shrink() built over
  /// `survivors`, the ascending surviving OLD world ranks).  Rebuilds
  /// runner, decompositions, grid, exchangers and integrator on the
  /// shrunk_layouts() layout, redistributes every old patch's interior
  /// from the rank serving it (tag 400, deterministic plan), then
  /// recomputes the ghosts.  Because every step ends in fill_ghosts and
  /// trajectories are decomposition-invariant, the rebuilt state is
  /// bitwise what a run launched directly on the shrunk layout holds
  /// after `src.step` steps.  Detaches telemetry (its aggregation
  /// window is tied to the old world); re-attach afterwards if wanted.
  void rebuild(const comm::Communicator& new_world,
               const std::vector<int>& survivors, const RebuildSource& src);

  /// Per-panel layouts after shrinking to `survivors` (old world ranks,
  /// ascending; panel boundary at old_yin.size()): a panel that lost no
  /// rank keeps its layout, otherwise its survivor count is re-factored
  /// near-square (comm::CartComm::choose_dims).  Each panel must keep
  /// at least one survivor.
  static std::pair<PanelLayout, PanelLayout> shrunk_layouts(
      PanelLayout old_yin, PanelLayout old_yang,
      const std::vector<int>& survivors);

  /// Halo → overset → walls and radial ghosts, on this rank's patch
  /// (collective: every rank must call it together).
  void fill_ghosts(mhd::Fields& s);

  /// Attaches (nullptr detaches) this rank's telemetry front end; every
  /// step is then bracketed with begin_step/end_step, which folds the
  /// step's spans into the per-step time series and joins the
  /// cross-rank aggregation window (obs/telemetry.hpp).  The telemetry
  /// object must outlive the solver or be detached first.
  void attach_telemetry(obs::RankTelemetry* t) { telemetry_ = t; }

 private:
  /// (Re)creates grid_ … weights_ and eq_ for this rank's patch.
  void build_patch();

  /// Decomposition of either panel (mine or the partner's).
  const PanelDecomposition& decomp_of(yinyang::Panel p) const {
    return p == runner_->panel() ? decomp_ : partner_decomp_;
  }

  SimulationConfig cfg_;
  yinyang::ComponentGeometry geom_;
  std::unique_ptr<Runner> runner_;
  PanelDecomposition decomp_;          ///< my panel's decomposition
  PanelDecomposition partner_decomp_;  ///< the other panel's
  PatchExtent extent_;
  std::unique_ptr<SphericalGrid> grid_;
  std::unique_ptr<yinyang::OversetInterpolator> interp_;
  std::unique_ptr<HaloExchanger> halo_;
  std::unique_ptr<OversetExchanger> overset_;
  mhd::RadialBoundary bc_;
  mhd::EquationParams eq_;
  std::unique_ptr<mhd::Fields> state_;
  std::unique_ptr<mhd::Integrator> integrator_;
  std::unique_ptr<mhd::ColumnWeights> weights_;
  double time_ = 0.0;
  long long steps_ = 0;
  obs::RankTelemetry* telemetry_ = nullptr;
  double last_stable_dt_ = 0.0;  ///< most recent collective CFL dt
};

}  // namespace yy::core
