#include "core/distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "comm/cart.hpp"
#include "core/ownership.hpp"
#include "mhd/init.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace yy::core {

using yinyang::Panel;

namespace {

GridSpec patch_spec(const yinyang::ComponentGeometry& geom,
                    const PatchExtent& e, int nr, double r0, double r1) {
  GridSpec s;
  s.nr = nr;
  s.nt = e.nt;
  s.np = e.np;
  s.r0 = r0;
  s.r1 = r1;
  s.t0 = geom.t_min() + e.t0 * geom.dt();
  s.t1 = geom.t_min() + (e.t0 + e.nt - 1) * geom.dt();
  s.p0 = geom.p_min() + e.p0 * geom.dp();
  s.p1 = geom.p_min() + (e.p0 + e.np - 1) * geom.dp();
  s.ghost = geom.ghost();
  s.phi_periodic = false;
  // Align the patch with the whole-panel grid: exact parent spacings
  // and global node indices make the coordinate and metric tables
  // bitwise identical across every decomposition of the panel — the
  // property the shrink-to-survive bitwise-restore guarantee rests on.
  s.t_spacing = geom.dt();
  s.p_spacing = geom.dp();
  s.t_origin = geom.t_min();
  s.p_origin = geom.p_min();
  s.t_offset = e.t0;
  s.p_offset = e.p0;
  return s;
}

}  // namespace

DistributedSolver::DistributedSolver(const SimulationConfig& cfg,
                                     const comm::Communicator& world, int pt,
                                     int pp)
    : DistributedSolver(cfg, world, PanelLayout{pt, pp}, PanelLayout{pt, pp}) {}

DistributedSolver::DistributedSolver(const SimulationConfig& cfg,
                                     const comm::Communicator& world,
                                     PanelLayout yin, PanelLayout yang)
    : cfg_(cfg),
      geom_(yinyang::ComponentGeometry::with_auto_margin(cfg.nt_core,
                                                         cfg.np_core)),
      runner_(std::make_unique<Runner>(world, yin, yang)),
      decomp_(geom_.nt(), geom_.np(), runner_->pt(), runner_->pp()),
      partner_decomp_(geom_.nt(), geom_.np(),
                      runner_->layout(yinyang::other(runner_->panel())).pt,
                      runner_->layout(yinyang::other(runner_->panel())).pp),
      extent_(decomp_.patch(runner_->cart().coord(0), runner_->cart().coord(1))),
      interp_(std::make_unique<yinyang::OversetInterpolator>(geom_)),
      bc_(cfg.thermal) {
  build_patch();
}

void DistributedSolver::build_patch() {
  grid_ = std::make_unique<SphericalGrid>(
      patch_spec(geom_, extent_, cfg_.nr, cfg_.shell.r_inner,
                 cfg_.shell.r_outer));
  halo_ = std::make_unique<HaloExchanger>(*grid_, runner_->cart());
  overset_ = std::make_unique<OversetExchanger>(
      *interp_, decomp_, partner_decomp_, *runner_, *grid_, extent_);
  state_ = std::make_unique<mhd::Fields>(*grid_);
  integrator_ = std::make_unique<mhd::Integrator>(
      cfg_.scheme, std::vector<const SphericalGrid*>{grid_.get()},
      cfg_.rhs_backend);
  weights_ = std::make_unique<mhd::ColumnWeights>(
      ownership_weights(geom_, *grid_, extent_.t0, extent_.p0));
  eq_ = runner_->panel() == Panel::yin ? cfg_.eq : cfg_.eq.for_partner_panel();
}

void DistributedSolver::fill_ghosts(mhd::Fields& s) {
  halo_->exchange(s);     // records halo_wait
  overset_->exchange(s);  // records overset_wait
  YY_TRACE_SCOPE(obs::Phase::boundary);
  bc_.fill_ghosts(*grid_, s);
}

void DistributedSolver::restore_state(const mhd::Fields& s, double time,
                                      long long step) {
  state_->copy_from(s);  // shape-checked inside
  time_ = time;
  steps_ = step;
}

void DistributedSolver::initialize() {
  mhd::initialize_state(*grid_, cfg_.shell, cfg_.thermal, cfg_.eq.g0, cfg_.ic,
                        static_cast<int>(runner_->panel()),
                        {extent_.t0, extent_.p0}, *state_);
  fill_ghosts(*state_);
  time_ = 0.0;
  steps_ = 0;
}

void DistributedSolver::step(double dt) {
  obs::set_current_step(steps_);
  if (telemetry_ != nullptr)
    telemetry_->begin_step(steps_, dt, last_stable_dt_);
  std::vector<mhd::PatchDef> patches{{grid_.get(), eq_, state_.get()}};
  const auto fill = [this](const std::vector<mhd::Fields*>& s) {
    fill_ghosts(*s[0]);
  };
  integrator_->step(patches, dt, fill);
  time_ += dt;
  ++steps_;
  if (telemetry_ != nullptr) telemetry_->end_step();
}

double DistributedSolver::stable_dt() {
  const double local =
      mhd::stable_timestep(*grid_, eq_, *state_, grid_->interior());
  YY_TRACE_SCOPE(obs::Phase::reduce);
  // allreduce_min keeps a NaN only as its left operand, so a rank with a
  // non-finite state sends −∞ (below any real dt) and every rank maps
  // it back to NaN: one collective, and all ranks agree.
  constexpr double kNanDt = -std::numeric_limits<double>::infinity();
  const double dt =
      runner_->world().allreduce_min(std::isnan(local) ? kNanDt : local);
  last_stable_dt_ = dt == kNanDt ? std::numeric_limits<double>::quiet_NaN()
                                 : cfg_.cfl_safety * dt;
  return last_stable_dt_;
}

mhd::EnergyBudget DistributedSolver::energies() {
  mhd::EnergyBudget e = mhd::integrate_energies(
      *grid_, eq_, *state_, *weights_, grid_->interior());
  YY_TRACE_SCOPE(obs::Phase::reduce);
  double vals[4] = {e.mass, e.kinetic, e.magnetic, e.thermal};
  runner_->world().allreduce_sum(vals);
  return {vals[0], vals[1], vals[2], vals[3]};
}

Field3 DistributedSolver::gather_field(int field_index, Panel p) {
  YY_TRACE_SCOPE(obs::Phase::io);
  const comm::Communicator& world = runner_->world();
  const int gh = grid_->ghost();
  const bool mine = runner_->panel() == p;
  constexpr int tag_gather = 300;

  // Every rank of panel `p` ships its interior block (header + data)
  // to world rank 0, which assembles the global panel field.
  if (mine) {
    const Field3& f = *state_->all()[static_cast<std::size_t>(field_index)];
    std::vector<double> msg;
    msg.reserve(4 + static_cast<std::size_t>(cfg_.nr) * extent_.nt * extent_.np);
    msg.push_back(extent_.t0);
    msg.push_back(extent_.nt);
    msg.push_back(extent_.p0);
    msg.push_back(extent_.np);
    for (int ip = 0; ip < extent_.np; ++ip)
      for (int it = 0; it < extent_.nt; ++it)
        for (int ir = 0; ir < cfg_.nr; ++ir)
          msg.push_back(f(gh + ir, gh + it, gh + ip));
    world.send(0, tag_gather, msg);
  }

  Field3 out;
  if (world.rank() == 0) {
    out = Field3(cfg_.nr, geom_.nt(), geom_.np());
    // Panel p's own layout/decomposition (the panels differ after a
    // shrink-to-survive rebuild).
    const PanelLayout& pl = runner_->layout(p);
    const PanelDecomposition& pd = decomp_of(p);
    for (int pr = 0; pr < pl.size(); ++pr) {
      const int src = runner_->world_rank(p, pr);
      const auto pe = pd.patch(pr / pl.pp, pr % pl.pp);
      std::vector<double> msg(4 + static_cast<std::size_t>(cfg_.nr) * pe.nt *
                                      pe.np);
      world.recv(src, tag_gather, msg);
      const int t0 = static_cast<int>(msg[0]);
      const int nt = static_cast<int>(msg[1]);
      const int p0 = static_cast<int>(msg[2]);
      const int np = static_cast<int>(msg[3]);
      std::size_t k = 4;
      for (int ip = 0; ip < np; ++ip)
        for (int it = 0; it < nt; ++it)
          for (int ir = 0; ir < cfg_.nr; ++ir)
            out(ir, t0 + it, p0 + ip) = msg[k++];
    }
  }
  return out;
}

std::pair<PanelLayout, PanelLayout> DistributedSolver::shrunk_layouts(
    PanelLayout old_yin, PanelLayout old_yang,
    const std::vector<int>& survivors) {
  int n_yin = 0, n_yang = 0;
  for (const int s : survivors) {
    YY_REQUIRE(s >= 0 && s < old_yin.size() + old_yang.size());
    (s < old_yin.size() ? n_yin : n_yang) += 1;
  }
  YY_REQUIRE(n_yin >= 1 && n_yang >= 1);
  const auto relayout = [](PanelLayout old, int n) {
    if (n == old.size()) return old;  // untouched panel keeps its shape
    const auto [d0, d1] = comm::CartComm::choose_dims(n);
    return PanelLayout{d0, d1};
  };
  return {relayout(old_yin, n_yin), relayout(old_yang, n_yang)};
}

void DistributedSolver::rebuild(const comm::Communicator& new_world,
                                const std::vector<int>& survivors,
                                const RebuildSource& src) {
  YY_REQUIRE(src.load != nullptr);
  YY_REQUIRE(static_cast<int>(survivors.size()) == new_world.size());
  const int old_world_size = runner_->world().size();
  YY_REQUIRE(static_cast<int>(src.holder_of.size()) == old_world_size);

  // ---- capture the old layout before any member is replaced.
  const PanelLayout old_yin = runner_->layout(Panel::yin);
  const PanelLayout old_yang = runner_->layout(Panel::yang);
  const PanelDecomposition old_decomp[2] = {
      PanelDecomposition(geom_.nt(), geom_.np(), old_yin.pt, old_yin.pp),
      PanelDecomposition(geom_.nt(), geom_.np(), old_yang.pt, old_yang.pp)};

  std::vector<int> new_rank_of(static_cast<std::size_t>(old_world_size), -1);
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const int s = survivors[i];
    YY_REQUIRE(s >= 0 && s < old_world_size);
    YY_REQUIRE(i == 0 || s > survivors[i - 1]);
    new_rank_of[static_cast<std::size_t>(s)] = static_cast<int>(i);
  }

  const auto [new_yin, new_yang] =
      shrunk_layouts(old_yin, old_yang, survivors);
  YY_REQUIRE(new_yin.size() + new_yang.size() == new_world.size());

  // ---- rebuild the solver structure on the shrunk world (geom_ and
  // interp_ are global knowledge and survive as-is; a Yin survivor
  // stays Yin because survivor order preserves the panel partition).
  runner_ = std::make_unique<Runner>(new_world, new_yin, new_yang);
  const Panel panel = runner_->panel();
  decomp_ =
      PanelDecomposition(geom_.nt(), geom_.np(), runner_->pt(), runner_->pp());
  const PanelLayout& partner = runner_->layout(yinyang::other(panel));
  partner_decomp_ =
      PanelDecomposition(geom_.nt(), geom_.np(), partner.pt, partner.pp);
  extent_ = decomp_.patch(runner_->cart().coord(0), runner_->cart().coord(1));
  build_patch();
  telemetry_ = nullptr;  // its aggregation window was over the old world

  // ---- deterministic redistribution plan, identical on every rank:
  // for each old patch, the rank serving its snapshot ships the
  // intersection with every new patch of the same panel.  Sends are
  // buffered and receives complete in the same global order, so the
  // two passes cannot deadlock or mismatch.
  struct Xfer {
    Panel p;
    int server;     // new world rank serving the old patch's snapshot
    int dest;       // new world rank owning the new patch
    int old_world;  // old world rank whose snapshot is shipped
    PatchExtent inter, old_e;
  };
  std::vector<Xfer> plan;
  for (const Panel p : {Panel::yin, Panel::yang}) {
    const int pi = p == Panel::yin ? 0 : 1;
    const PanelLayout& ol = pi == 0 ? old_yin : old_yang;
    const PanelDecomposition& od = old_decomp[pi];
    const PanelLayout& nl = runner_->layout(p);
    const PanelDecomposition& nd = decomp_of(p);
    const int old_base = pi == 0 ? 0 : old_yin.size();
    for (int o = 0; o < ol.size(); ++o) {
      const int w = old_base + o;
      const int holder = src.holder_of[static_cast<std::size_t>(w)];
      YY_REQUIRE(holder >= 0 && holder < old_world_size);
      const int server = new_rank_of[static_cast<std::size_t>(holder)];
      YY_REQUIRE(server >= 0);  // a dead holder cannot serve
      const PatchExtent oe = od.patch(o / ol.pp, o % ol.pp);
      for (int nn = 0; nn < nl.size(); ++nn) {
        const PatchExtent ne = nd.patch(nn / nl.pp, nn % nl.pp);
        const PatchExtent ov = intersect(oe, ne);
        if (ov.nt == 0 || ov.np == 0) continue;
        plan.push_back({p, server, runner_->world_rank(p, nn), w, ov, oe});
      }
    }
  }

  // Snapshots this rank serves, decoded once per old rank.
  std::map<int, std::unique_ptr<mhd::Fields>> served;
  const auto serve = [&](const Xfer& x) -> const mhd::Fields& {
    auto it = served.find(x.old_world);
    if (it == served.end()) {
      const SphericalGrid g(patch_spec(geom_, x.old_e, cfg_.nr,
                                       cfg_.shell.r_inner,
                                       cfg_.shell.r_outer));
      auto f = std::make_unique<mhd::Fields>(g);
      if (!src.load(x.old_world, *f)) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "rebuild: snapshot for old world rank %d cannot be "
                      "served",
                      x.old_world);
        throw Error(Error::Kind::corruption, msg);
      }
      it = served.emplace(x.old_world, std::move(f)).first;
    }
    return *it->second;
  };
  const auto pack = [&](const Xfer& x, std::vector<double>& buf) {
    const mhd::Fields& f = serve(x);
    buf.reserve(static_cast<std::size_t>(mhd::Fields::kNumFields) *
                static_cast<std::size_t>(cfg_.nr) *
                static_cast<std::size_t>(x.inter.nt) *
                static_cast<std::size_t>(x.inter.np));
    const int gh = geom_.ghost();
    for (const Field3* fld : f.all())
      for (int ip = 0; ip < x.inter.np; ++ip)
        for (int it = 0; it < x.inter.nt; ++it)
          for (int ir = 0; ir < cfg_.nr; ++ir)
            buf.push_back((*fld)(gh + ir, gh + (x.inter.t0 - x.old_e.t0) + it,
                                 gh + (x.inter.p0 - x.old_e.p0) + ip));
  };

  const int me = new_world.rank();
  const int gh = grid_->ghost();
  constexpr int tag_rebuild = 400;

  // Pass 1: post every send (self-copies are handled in pass 2).
  for (const Xfer& x : plan) {
    if (x.server != me || x.dest == me) continue;
    std::vector<double> buf;
    pack(x, buf);
    new_world.send(x.dest, tag_rebuild, buf);
  }

  // Pass 2: receives and self-copies, in the same global plan order.
  for (const Xfer& x : plan) {
    if (x.dest != me) continue;
    std::vector<double> buf;
    if (x.server == me) {
      pack(x, buf);
    } else {
      buf.resize(static_cast<std::size_t>(mhd::Fields::kNumFields) *
                 static_cast<std::size_t>(cfg_.nr) *
                 static_cast<std::size_t>(x.inter.nt) *
                 static_cast<std::size_t>(x.inter.np));
      new_world.recv(x.server, tag_rebuild, buf);
    }
    std::size_t k = 0;
    for (Field3* fld : state_->all())
      for (int ip = 0; ip < x.inter.np; ++ip)
        for (int it = 0; it < x.inter.nt; ++it)
          for (int ir = 0; ir < cfg_.nr; ++ir)
            (*fld)(gh + ir, gh + (x.inter.t0 - extent_.t0) + it,
                   gh + (x.inter.p0 - extent_.p0) + ip) = buf[k++];
  }
  served.clear();

  // Interiors are exact; the ghost frame (walls, halos, overset,
  // radial) is recomputed collectively, exactly as the end of a step
  // leaves it — completing the bitwise-equivalence argument.
  time_ = src.time;
  steps_ = src.step;
  fill_ghosts(*state_);
}

}  // namespace yy::core
