#include "core/halo.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace yy::core {

namespace {
constexpr int tag_theta_to_low = 100;
constexpr int tag_theta_to_high = 101;
constexpr int tag_phi_to_low = 102;
constexpr int tag_phi_to_high = 103;
}  // namespace

HaloExchanger::HaloExchanger(const SphericalGrid& local,
                             const comm::CartComm& cart)
    : grid_(&local), cart_(&cart) {
  // Halo strips must come from the neighbour's interior: each patch
  // needs at least `ghost` interior nodes in a decomposed direction.
  if (cart.dim(0) > 1) YY_REQUIRE(local.spec().nt >= local.ghost());
  if (cart.dim(1) > 1) YY_REQUIRE(local.spec().np >= local.ghost());
  send_t_low_.resize(theta_count());
  send_t_high_.resize(theta_count());
  recv_t_low_.resize(theta_count());
  recv_t_high_.resize(theta_count());
  send_p_low_.resize(phi_count());
  send_p_high_.resize(phi_count());
  recv_p_low_.resize(phi_count());
  recv_p_high_.resize(phi_count());
}

std::size_t HaloExchanger::theta_count() const {
  return static_cast<std::size_t>(grid_->Nr()) * grid_->ghost() *
         grid_->Np() * mhd::Fields::kNumFields;
}

std::size_t HaloExchanger::phi_count() const {
  return static_cast<std::size_t>(grid_->Nr()) * grid_->Nt() *
         grid_->ghost() * mhd::Fields::kNumFields;
}

std::size_t HaloExchanger::pack(const mhd::Fields& s, std::vector<double>& buf,
                                int it0, int it1, int ip0, int ip1) const {
  const int Nr = grid_->Nr();
  std::size_t k = 0;
  for (const Field3* f : s.all())
    for (int ip = ip0; ip < ip1; ++ip)
      for (int it = it0; it < it1; ++it) {
        auto line = f->line(it, ip);
        std::copy(line.begin(), line.end(),
                  buf.begin() + static_cast<std::ptrdiff_t>(k));
        k += static_cast<std::size_t>(Nr);
      }
  return k;
}

std::size_t HaloExchanger::unpack(mhd::Fields& s,
                                  const std::vector<double>& buf, int it0,
                                  int it1, int ip0, int ip1) const {
  const int Nr = grid_->Nr();
  std::size_t k = 0;
  for (Field3* f : s.all())
    for (int ip = ip0; ip < ip1; ++ip)
      for (int it = it0; it < it1; ++it) {
        auto line = f->line(it, ip);
        std::copy(buf.begin() + static_cast<std::ptrdiff_t>(k),
                  buf.begin() +
                      static_cast<std::ptrdiff_t>(k + static_cast<std::size_t>(Nr)),
                  line.begin());
        k += static_cast<std::size_t>(Nr);
      }
  return k;
}

void HaloExchanger::exchange(mhd::Fields& s) const {
  YY_TRACE_SCOPE_V(span, obs::Phase::halo_wait);
  const SphericalGrid& g = *grid_;
  const int gh = g.ghost();
  const comm::Communicator& c = cart_->comm();
  const auto [t_low, t_high] = cart_->shift(0, 1);
  const auto [p_low, p_high] = cart_->shift(1, 1);
  const std::size_t nt = theta_count();
  const std::size_t np = phi_count();

  // Pre-post every receive before any send (the paper's irecv-then-send
  // idiom).  proc_null sides yield immediately-complete requests.
  comm::Request rt_low =
      c.irecv(t_low, tag_theta_to_high, {recv_t_low_.data(), nt});
  comm::Request rt_high =
      c.irecv(t_high, tag_theta_to_low, {recv_t_high_.data(), nt});
  comm::Request rp_low =
      c.irecv(p_low, tag_phi_to_high, {recv_p_low_.data(), np});
  comm::Request rp_high =
      c.irecv(p_high, tag_phi_to_low, {recv_p_high_.data(), np});

  // θ phase: strips of owned interior rows out, ghost rows in.
  const int t_lo_int = gh;
  const int t_hi_int = gh + g.spec().nt - gh;
  if (t_low != comm::proc_null) {
    const std::size_t k = pack(s, send_t_low_, t_lo_int, t_lo_int + gh, 0, g.Np());
    YY_ASSERT(k == nt);
    c.send(t_low, tag_theta_to_low, {send_t_low_.data(), nt});
  }
  if (t_high != comm::proc_null) {
    const std::size_t k = pack(s, send_t_high_, t_hi_int, t_hi_int + gh, 0, g.Np());
    YY_ASSERT(k == nt);
    c.send(t_high, tag_theta_to_high, {send_t_high_.data(), nt});
  }
  c.wait(rt_low);
  c.wait(rt_high);
  if (t_low != comm::proc_null) unpack(s, recv_t_low_, 0, gh, 0, g.Np());
  if (t_high != comm::proc_null)
    unpack(s, recv_t_high_, gh + g.spec().nt, gh + g.spec().nt + gh, 0, g.Np());

  // φ phase: strips span the full ghost-inclusive θ range, so packing
  // had to wait for the θ ghosts above — this completes the corners.
  const int p_lo_int = gh;
  const int p_hi_int = gh + g.spec().np - gh;
  if (p_low != comm::proc_null) {
    const std::size_t k = pack(s, send_p_low_, 0, g.Nt(), p_lo_int, p_lo_int + gh);
    YY_ASSERT(k == np);
    c.send(p_low, tag_phi_to_low, {send_p_low_.data(), np});
  }
  if (p_high != comm::proc_null) {
    const std::size_t k = pack(s, send_p_high_, 0, g.Nt(), p_hi_int, p_hi_int + gh);
    YY_ASSERT(k == np);
    c.send(p_high, tag_phi_to_high, {send_p_high_.data(), np});
  }
  c.wait(rp_low);
  c.wait(rp_high);
  if (p_low != comm::proc_null) unpack(s, recv_p_low_, 0, g.Nt(), 0, gh);
  if (p_high != comm::proc_null)
    unpack(s, recv_p_high_, 0, g.Nt(), gh + g.spec().np, gh + g.spec().np + gh);

  span.add_bytes(bytes_per_exchange());
}

std::uint64_t HaloExchanger::bytes_per_exchange() const {
  const SphericalGrid& g = *grid_;
  std::uint64_t bytes = 0;
  for (int dim = 0; dim < 2; ++dim) {
    const auto [low, high] = cart_->shift(dim, 1);
    const std::uint64_t strip =
        static_cast<std::uint64_t>(g.Nr()) * g.ghost() *
        (dim == 0 ? g.Np() : g.Nt()) * mhd::Fields::kNumFields * sizeof(double);
    if (low != comm::proc_null) bytes += 2 * strip;   // send + recv
    if (high != comm::proc_null) bytes += 2 * strip;
  }
  return bytes;
}

}  // namespace yy::core
