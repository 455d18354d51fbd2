/// \file overset_exchange.hpp
/// Distributed overset interpolation between the Yin and Yang panels
/// (paper §IV: "Communication between two groups (Yin and Yang) is
/// required for the overset interpolation.  This communication is
/// implemented by MPI_SEND and MPI_IRECV under
/// gRunner%world%communicator").
///
/// The communication plan is computed locally on every rank with zero
/// setup traffic: the interpolator's stencil table and the panel
/// decomposition are global knowledge, so donor and receiver
/// independently derive identical, identically-ordered message lists.
/// Donors interpolate (and rotate vector components) before sending, so
/// one radial line of 8 field values travels per boundary column per
/// message — the minimal payload.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "comm/communicator.hpp"
#include "core/decomposition.hpp"
#include "core/runner.hpp"
#include "grid/spherical_grid.hpp"
#include "mhd/state.hpp"
#include "yinyang/interpolator.hpp"

namespace yy::core {

class OversetExchanger {
 public:
  /// `local` is this rank's patch grid, `extent` its panel-interior
  /// extent.  `my_decomp` decomposes this rank's panel, `partner_decomp`
  /// the other panel — they differ after a shrink-to-survive rebuild
  /// (pass the same object twice for the symmetric layout).  All ranks
  /// of both panels must construct this collectively (the exchange
  /// pairs messages by the shared deterministic plan).
  OversetExchanger(const yinyang::OversetInterpolator& interp,
                   const PanelDecomposition& my_decomp,
                   const PanelDecomposition& partner_decomp,
                   const Runner& runner, const SphericalGrid& local,
                   const PatchExtent& extent);

  /// Donates from `s` (this rank's interior + halo) and fills the
  /// panel-boundary ghost columns of `s` from the partner panel.
  /// `s` must have fresh wall values and halos (the 2×2 stencil's +1
  /// rows may live in the halo).  Records one `overset_wait` trace span
  /// carrying the bytes sent.  A fault unwinds out of a wait and leaves
  /// nothing in flight (see HaloExchanger::exchange).
  void exchange(mhd::Fields& s) const;

  /// Bytes this rank sends per exchange (perf-model input).
  std::uint64_t bytes_sent_per_exchange() const;

  /// Number of distinct partner ranks this rank talks to.
  int send_partner_count() const { return static_cast<int>(send_plan_.size()); }
  int recv_partner_count() const { return static_cast<int>(recv_plan_.size()); }

 private:
  struct SendItem {
    yinyang::StencilEntry entry;  // donor indices rebased to local patch
  };
  struct RecvItem {
    int itloc = 0, iploc = 0;  // local ghost column (full-array indices)
  };

  const SphericalGrid* grid_;
  const Runner* runner_;
  int nr_;
  // Keyed by *world* rank of the partner; std::map keeps deterministic
  // iteration order on both sides.
  std::map<int, std::vector<SendItem>> send_plan_;
  std::map<int, std::vector<RecvItem>> recv_plan_;
  mutable std::vector<std::vector<double>> send_bufs_, recv_bufs_;
};

}  // namespace yy::core
