#include "mhd/state.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace yy::mhd {

Fields::Fields(const SphericalGrid& g)
    : rho(g.Nr(), g.Nt(), g.Np(), 1.0),
      fr(g.Nr(), g.Nt(), g.Np()),
      ft(g.Nr(), g.Nt(), g.Np()),
      fp(g.Nr(), g.Nt(), g.Np()),
      p(g.Nr(), g.Nt(), g.Np(), 1.0),
      ar(g.Nr(), g.Nt(), g.Np()),
      at(g.Nr(), g.Nt(), g.Np()),
      ap(g.Nr(), g.Nt(), g.Np()) {}

std::array<Field3*, Fields::kNumFields> Fields::all() {
  return {&rho, &fr, &ft, &fp, &p, &ar, &at, &ap};
}

std::array<const Field3*, Fields::kNumFields> Fields::all() const {
  return {&rho, &fr, &ft, &fp, &p, &ar, &at, &ap};
}

void Fields::copy_from(const Fields& src) {
  auto dst = all();
  auto s = src.all();
  for (int i = 0; i < kNumFields; ++i) YY_REQUIRE(dst[i]->same_shape(*s[i]));
  for (int i = 0; i < kNumFields; ++i)
    std::copy(s[i]->flat().begin(), s[i]->flat().end(),
              dst[i]->flat().begin());
}

void Fields::set_zero() {
  for (Field3* f : all()) f->fill(0.0);
}

}  // namespace yy::mhd
