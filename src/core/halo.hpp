/// \file halo.hpp
/// Intra-panel nearest-neighbour halo exchange (paper §IV: "MPI_SEND
/// and MPI_IRECV are called between nearest neighbor processes.  Each
/// process has four neighbors (north, east, south, and west)").
///
/// The exchange is two-phase — θ strips first, then φ strips spanning
/// the *full* (ghost-inclusive) θ range — so the diagonal ghost
/// corners needed by the composite second-derivative stencils arrive
/// without explicit corner messages.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/cart.hpp"
#include "comm/communicator.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/state.hpp"

namespace yy::core {

class HaloExchanger {
 public:
  HaloExchanger(const SphericalGrid& local, const comm::CartComm& cart);

  /// Refreshes the θ/φ ghost layers of `s` shared with cart neighbours;
  /// panel-boundary ghosts (proc_null sides) are left for the overset.
  /// Records one `halo_wait` trace span carrying the bytes moved.  A
  /// fault (timeout/corruption) unwinds out of a wait and leaves
  /// nothing in flight: receives are lazy matchers, and the recovery
  /// rendezvous purges any envelope already sent.
  void exchange(mhd::Fields& s) const;

  /// Bytes moved per exchange by this rank (both directions, all
  /// fields); feeds the perf model's communication volumes.
  std::uint64_t bytes_per_exchange() const;

 private:
  std::size_t theta_count() const;  ///< doubles per θ strip
  std::size_t phi_count() const;    ///< doubles per φ strip
  std::size_t pack(const mhd::Fields& s, std::vector<double>& buf, int it0,
                   int it1, int ip0, int ip1) const;
  std::size_t unpack(mhd::Fields& s, const std::vector<double>& buf, int it0,
                     int it1, int ip0, int ip1) const;

  const SphericalGrid* grid_;
  const comm::CartComm* cart_;
  // One buffer per direction and dimension, reused by every exchange:
  // sends are buffered by the fabric at send() time.
  mutable std::vector<double> send_t_low_, send_t_high_;
  mutable std::vector<double> recv_t_low_, recv_t_high_;
  mutable std::vector<double> send_p_low_, send_p_high_;
  mutable std::vector<double> recv_p_low_, recv_p_high_;
};

}  // namespace yy::core
