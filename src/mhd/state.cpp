#include "mhd/state.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/flops.hpp"

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

void Fields::axpy(double a, const Fields& x) {
  auto dst = all();
  auto s = x.all();
  for (int i = 0; i < kNumFields; ++i) YY_REQUIRE(dst[i]->same_shape(*s[i]));
  for (int i = 0; i < kNumFields; ++i) {
    auto d = dst[i]->flat();
    auto v = s[i]->flat();
    for (std::size_t k = 0; k < d.size(); ++k) d[k] += a * v[k];
  }
  flops::add(2ull * kNumFields * rho.size());
}

void Fields::assign_axpy(const Fields& base, double a, const Fields& x) {
  auto dst = all();
  auto b = base.all();
  auto s = x.all();
  for (int i = 0; i < kNumFields; ++i)
    YY_REQUIRE(dst[i]->same_shape(*s[i]) && dst[i]->same_shape(*b[i]));
  for (int i = 0; i < kNumFields; ++i) {
    auto d = dst[i]->flat();
    auto bb = b[i]->flat();
    auto v = s[i]->flat();
    for (std::size_t k = 0; k < d.size(); ++k) d[k] = bb[k] + a * v[k];
  }
  flops::add(2ull * kNumFields * rho.size());
}

void Fields::set_zero() {
  for (Field3* f : all()) f->fill(0.0);
}

}  // namespace yy::mhd
