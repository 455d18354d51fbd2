/// \file diagnostics.hpp
/// Volume-integral diagnostics (mass, kinetic / magnetic / thermal
/// energy) and the CFL-stable timestep estimate.
///
/// On the Yin-Yang grid the two panels overlap (~6% of the sphere,
/// paper §II), so global integrals weight each column by its ownership
/// share: 1 where only this panel's core covers the point, 1/2 where
/// both cores do, 0 in the margin/ghost region (covered by the partner
/// core).  The weights are supplied per horizontal column.
#pragma once

#include <span>

#include "grid/spherical_grid.hpp"
#include "mhd/params.hpp"
#include "mhd/rhs.hpp"
#include "mhd/state.hpp"

namespace yy::mhd {

/// Ownership weight per horizontal column, indexed it * Np + ip over
/// the full patch (ghosts included, weight 0 there).
class ColumnWeights {
 public:
  ColumnWeights(int Nt, int Np, double fill = 1.0)
      : nt_(Nt), np_(Np),
        w_(static_cast<std::size_t>(Nt) * static_cast<std::size_t>(Np), fill) {}

  double& at(int it, int ip) { return w_[idx(it, ip)]; }
  double at(int it, int ip) const { return w_[idx(it, ip)]; }
  int Nt() const { return nt_; }
  int Np() const { return np_; }

 private:
  std::size_t idx(int it, int ip) const {
    return static_cast<std::size_t>(it) * static_cast<std::size_t>(np_) +
           static_cast<std::size_t>(ip);
  }
  int nt_, np_;
  std::vector<double> w_;
};

struct EnergyBudget {
  double mass = 0.0;
  double kinetic = 0.0;   ///< ∫ f²/(2ρ) dV
  double magnetic = 0.0;  ///< ∫ B²/2 dV
  double thermal = 0.0;   ///< ∫ p/(γ−1) dV

  EnergyBudget& operator+=(const EnergyBudget& o) {
    mass += o.mass;
    kinetic += o.kinetic;
    magnetic += o.magnetic;
    thermal += o.thermal;
    return *this;
  }
};

/// Integrates over `box` with ownership weights; needs valid ghosts on
/// box.grown(1) for B = ∇×A.  Uses `ws` for the curl scratch.
EnergyBudget integrate_energies(const SphericalGrid& g,
                                const EquationParams& eq, const Fields& s,
                                Workspace& ws, const ColumnWeights& weights,
                                const IndexBox& box);

/// Largest stable timestep (advective fast-mode CFL combined with the
/// explicit diffusion limit), over `box`.  Multiply by a safety factor.
/// NaN if any point's rate is not finite (a NaN or blown-up state).
double stable_timestep(const SphericalGrid& g, const EquationParams& eq,
                       const Fields& s, Workspace& ws, const IndexBox& box);

}  // namespace yy::mhd
