#include "core/overset_exchange.hpp"

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace yy::core {

namespace {
constexpr int tag_overset = 200;
constexpr int kFieldsPerColumn = mhd::Fields::kNumFields;
}  // namespace

OversetExchanger::OversetExchanger(const yinyang::OversetInterpolator& interp,
                                   const PanelDecomposition& my_decomp,
                                   const PanelDecomposition& partner_decomp,
                                   const Runner& runner,
                                   const SphericalGrid& local,
                                   const PatchExtent& extent)
    : grid_(&local), runner_(&runner), nr_(local.spec().nr) {
  const int gh = local.ghost();
  const yinyang::Panel me_panel = runner.panel();
  const yinyang::Panel partner_panel = yinyang::other(me_panel);
  const int my_panel_rank = runner.panel_rank();

  // The plan derives from the global stencil table.  Entry indices are
  // panel full-array positions of a *whole-panel* grid with the same
  // ghost width; interior index = full − gh.  Donor and receiver walk
  // the table in the same order with mirrored predicates, so the
  // per-(sender, receiver) message streams agree even when the two
  // panels carry different decompositions.
  for (const yinyang::StencilEntry& e : interp.entries()) {
    const int jt_int = e.donor_jt - gh;
    const int jp_int = e.donor_jp - gh;

    // --- donor side: I donate when MY panel's decomposition assigns me
    // the donor cell's base node (the 2×2 stencil's +1 rows may live in
    // my halo, which is valid because halo exchange precedes the
    // overset exchange).  Receivers are every partner-panel rank whose
    // patch array contains the ghost column (ghost frames of adjacent
    // edge patches overlap at panel corners).
    const int donor_ct = my_decomp.owner_t(jt_int);
    const int donor_cp = my_decomp.owner_p(jp_int);
    if (donor_ct * my_decomp.pp() + donor_cp == my_panel_rank) {
      const PatchExtent mine = my_decomp.patch(donor_ct, donor_cp);
      for (int ct = 0; ct < partner_decomp.pt(); ++ct) {
        for (int cp = 0; cp < partner_decomp.pp(); ++cp) {
          const PatchExtent pe = partner_decomp.patch(ct, cp);
          const int itloc = e.recv_it - pe.t0;  // receiver full-array index
          const int iploc = e.recv_ip - pe.p0;
          if (itloc < 0 || itloc >= pe.nt + 2 * gh) continue;
          if (iploc < 0 || iploc >= pe.np + 2 * gh) continue;
          SendItem si;
          si.entry = e;
          si.entry.donor_jt = e.donor_jt - mine.t0;  // rebase to my patch
          si.entry.donor_jp = e.donor_jp - mine.p0;
          send_plan_[runner.world_rank(partner_panel,
                                       ct * partner_decomp.pp() + cp)]
              .push_back(si);
        }
      }
    }

    // --- receiver side: I receive when my own patch array contains the
    // ghost column; the donor is the partner panel's owner of the donor
    // base node.  The table is panel-symmetric, so it serves both
    // directions simultaneously.
    const int itloc = e.recv_it - extent.t0;
    const int iploc = e.recv_ip - extent.p0;
    if (itloc >= 0 && itloc < extent.nt + 2 * gh && iploc >= 0 &&
        iploc < extent.np + 2 * gh) {
      const int donor_rank =
          partner_decomp.owner_t(jt_int) * partner_decomp.pp() +
          partner_decomp.owner_p(jp_int);
      recv_plan_[runner.world_rank(partner_panel, donor_rank)].push_back(
          {itloc, iploc});
    }
  }

  for (const auto& [rank, items] : send_plan_)
    send_bufs_.emplace_back(items.size() * static_cast<std::size_t>(nr_) *
                            kFieldsPerColumn);
  for (const auto& [rank, items] : recv_plan_)
    recv_bufs_.emplace_back(items.size() * static_cast<std::size_t>(nr_) *
                            kFieldsPerColumn);
}

void OversetExchanger::exchange(mhd::Fields& s) const {
  YY_TRACE_SCOPE_V(span, obs::Phase::overset_wait);
  const comm::Communicator& world = runner_->world();
  const int gh = grid_->ghost();

  // Post all receives first (MPI_IRECV), then interpolate-and-send.
  std::vector<comm::Request> reqs;
  reqs.reserve(recv_plan_.size());
  {
    std::size_t b = 0;
    for (const auto& [rank, items] : recv_plan_) {
      reqs.push_back(world.irecv(
          rank, tag_overset,
          {recv_bufs_[b].data(),
           items.size() * static_cast<std::size_t>(nr_) * kFieldsPerColumn}));
      ++b;
    }
  }

  // Donor-side interpolation: per entry, per field, one radial line.
  // Vector fields (f, A) are rotated into the receiver frame here, so
  // the receiver only copies.
  {
    std::size_t b = 0;
    for (const auto& [rank, items] : send_plan_) {
      std::vector<double>& buf = send_bufs_[b];
      std::size_t k = 0;
      for (const SendItem& si : items) {
        const yinyang::StencilEntry& e = si.entry;
        auto interp_line = [&](const Field3& f, int ir) {
          return e.w[0][0] * f(ir, e.donor_jt, e.donor_jp) +
                 e.w[0][1] * f(ir, e.donor_jt, e.donor_jp + 1) +
                 e.w[1][0] * f(ir, e.donor_jt + 1, e.donor_jp) +
                 e.w[1][1] * f(ir, e.donor_jt + 1, e.donor_jp + 1);
        };
        for (int ir = gh; ir < gh + nr_; ++ir) {
          const double rho = interp_line(s.rho, ir);
          const double pres = interp_line(s.p, ir);
          const Vec3 f = e.rot * Vec3{interp_line(s.fr, ir),
                                      interp_line(s.ft, ir),
                                      interp_line(s.fp, ir)};
          const Vec3 a = e.rot * Vec3{interp_line(s.ar, ir),
                                      interp_line(s.at, ir),
                                      interp_line(s.ap, ir)};
          buf[k + 0] = rho;
          buf[k + 1] = f.x;
          buf[k + 2] = f.y;
          buf[k + 3] = f.z;
          buf[k + 4] = pres;
          buf[k + 5] = a.x;
          buf[k + 6] = a.y;
          buf[k + 7] = a.z;
          k += kFieldsPerColumn;
        }
      }
      YY_ASSERT(k == buf.size());
      world.send(rank, tag_overset, buf);
      ++b;
    }
  }

  // Complete receives and scatter into the ghost columns.
  {
    std::size_t b = 0;
    for (const auto& [rank, items] : recv_plan_) {
      world.wait(reqs[b]);
      const std::vector<double>& buf = recv_bufs_[b];
      std::size_t k = 0;
      for (const RecvItem& ri : items) {
        for (int ir = gh; ir < gh + nr_; ++ir) {
          s.rho(ir, ri.itloc, ri.iploc) = buf[k + 0];
          s.fr(ir, ri.itloc, ri.iploc) = buf[k + 1];
          s.ft(ir, ri.itloc, ri.iploc) = buf[k + 2];
          s.fp(ir, ri.itloc, ri.iploc) = buf[k + 3];
          s.p(ir, ri.itloc, ri.iploc) = buf[k + 4];
          s.ar(ir, ri.itloc, ri.iploc) = buf[k + 5];
          s.at(ir, ri.itloc, ri.iploc) = buf[k + 6];
          s.ap(ir, ri.itloc, ri.iploc) = buf[k + 7];
          k += kFieldsPerColumn;
        }
      }
      YY_ASSERT(k == buf.size());
      ++b;
    }
  }

  span.add_bytes(bytes_sent_per_exchange());
}

std::uint64_t OversetExchanger::bytes_sent_per_exchange() const {
  std::uint64_t bytes = 0;
  for (const auto& buf : send_bufs_) bytes += buf.size() * sizeof(double);
  return bytes;
}

}  // namespace yy::core
