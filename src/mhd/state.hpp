/// \file state.hpp
/// The simulation state: the paper's basic variables ρ (mass density),
/// f = ρv (mass flux density), p (pressure) and A (magnetic vector
/// potential), each a Field3 on one grid patch.  Magnetic field B,
/// current j and electric field E are *subsidiary* (derived) fields,
/// computed on demand — see derived.hpp.
#pragma once

#include <array>

#include "common/array3d.hpp"
#include "grid/spherical_grid.hpp"

namespace yy::mhd {

class Fields {
 public:
  static constexpr int kNumFields = 8;

  explicit Fields(const SphericalGrid& g);

  Field3 rho, fr, ft, fp, p, ar, at, ap;

  /// Uniform access for exchange/integration loops; order is fixed:
  /// ρ, f_r, f_θ, f_φ, p, A_r, A_θ, A_φ.
  std::array<Field3*, kNumFields> all();
  std::array<const Field3*, kNumFields> all() const;

  /// this = src (shapes must match).
  void copy_from(const Fields& src);

  void set_zero();
};

}  // namespace yy::mhd
