#include "perf/es_model.hpp"

#include <algorithm>
#include <cmath>

#include "comm/cart.hpp"
#include "common/error.hpp"

namespace yy::perf {

ModelResult EsPerformanceModel::predict(const RunConfig& rc) const {
  YY_REQUIRE(rc.processors >= 2 && rc.processors % 2 == 0);
  YY_REQUIRE(rc.nr >= 2 && rc.nt >= 2 && rc.np >= 2);

  ModelResult r;
  // Hybrid microtasking: one MPI process per 8-AP node; the domain is
  // decomposed over processes, each computing 8x faster (×efficiency).
  const bool hybrid = rc.parallelization == Parallelization::hybrid_microtask;
  const int ranks = hybrid ? std::max(2, rc.processors / spec_.aps_per_node)
                           : rc.processors;
  const int per_panel = ranks / 2;
  const auto [pt, pp] = comm::CartComm::choose_dims(per_panel);
  r.pt = pt;
  r.pp = pp;
  // Slowest (largest) patch governs the bulk-synchronous step time.
  r.ntl = (rc.nt + pt - 1) / pt;
  r.npl = (rc.np + pp - 1) / pp;
  r.grid_points = 2ll * rc.nr * rc.nt * rc.np;

  // ---- computation ----------------------------------------------------
  const double w_proc =
      flops_per_point_ * rc.nr * static_cast<double>(r.ntl) * r.npl;
  r.flops_per_step = flops_per_point_ * static_cast<double>(r.grid_points);

  // Vector pipeline: radial loops of length nr strip-mined into
  // 256-element slices; startup is paid once per loop nest plus a
  // smaller cost per slice.
  const int chunks = (rc.nr + spec_.vector_register_length - 1) /
                     spec_.vector_register_length;
  const double len_factor =
      rc.nr / (rc.nr + cost_.loop_startup_cycles +
               chunks * cost_.chunk_startup_cycles);
  r.avg_vector_length =
      static_cast<double>(rc.nr) / chunks;  // what the HW counter reports

  // Vector-operation ratio: a few scalar bookkeeping ops per radial line.
  const double alpha =
      rc.nr / (rc.nr + cost_.scalar_overhead_per_line);
  r.vec_op_ratio = alpha;

  const double ap_multiplier =
      hybrid ? spec_.aps_per_node * cost_.microtask_efficiency : 1.0;
  const double vec_rate = spec_.ap_peak_gflops * 1e9 *
                          cost_.mem_sustain_frac * len_factor * ap_multiplier;
  const double t_comp =
      w_proc * (alpha / vec_rate +
                (1.0 - alpha) / (cost_.scalar_gflops * 1e9 * ap_multiplier));

  // ---- communication --------------------------------------------------
  // Per RK4 stage (4 fills/step): 4-neighbour halo strips of all 8
  // fields, 2 ghost layers deep and nr long, plus this process's share
  // of the inter-panel overset traffic (one 8-field radial line per
  // boundary column; the ghost frame has ≈ 2·ghost·(2nt+2np) columns).
  constexpr int fills_per_step = 4;
  constexpr int fields = 8;
  constexpr int ghost = 2;
  const double bytes_halo =
      fields * 8.0 * rc.nr * ghost *
      (2.0 * (r.npl + 2 * ghost) + 2.0 * (r.ntl + 2 * ghost));
  const double overset_columns = 2.0 * ghost * (2.0 * rc.nt + 2.0 * rc.np);
  const double bytes_overset =
      fields * 8.0 * rc.nr * overset_columns / per_panel;
  const double bytes_per_fill = bytes_halo + bytes_overset;
  const int msgs_per_fill = 8 + 2;  // 4 neighbours × send+recv + overset

  // Hybrid: a whole node drives one message stream at full link rate.
  const double bw = cost_.eff_bandwidth_gbs * (hybrid ? spec_.aps_per_node : 1.0);
  const double t_comm_fill = bytes_per_fill / (bw * 1e9) +
                             msgs_per_fill * cost_.msg_latency_s +
                             cost_.straggler_s_per_proc * ranks;
  const double t_comm = fills_per_step * t_comm_fill;
  // Phase split of the fill: halo carries 8 of the 10 messages and its
  // byte share; the straggler tail is apportioned by byte volume.
  const double halo_share =
      (bytes_halo / (bw * 1e9) + 8 * cost_.msg_latency_s +
       cost_.straggler_s_per_proc * ranks * bytes_halo / bytes_per_fill) /
      t_comm_fill;

  // ---- totals ----------------------------------------------------------
  r.time_per_step_s = t_comp + t_comm;
  r.comm_fraction = t_comm / r.time_per_step_s;
  r.comp_fraction = t_comp / r.time_per_step_s;
  r.halo_fraction = r.comm_fraction * halo_share;
  r.overset_fraction = r.comm_fraction * (1.0 - halo_share);
  r.tflops = r.flops_per_step / r.time_per_step_s / 1e12;
  const double peak_tflops = rc.processors * spec_.ap_peak_gflops / 1000.0;
  r.efficiency = r.tflops / peak_tflops;
  r.flops_per_gridpoint_rate =
      r.tflops * 1e12 / static_cast<double>(r.grid_points);

  // Memory footprint: 8 state arrays and 3 stage sets of 8 per process
  // (the RHS sweep's pencil rings are planes, not volumes), all
  // (nr+4)(ntl+4)(npl+4) doubles — checked against the node's memory
  // shared by its resident processes (Table I).
  constexpr int arrays = 8 + 3 * 8;
  const double patch_doubles = static_cast<double>(rc.nr + 4) *
                               (r.ntl + 4) * (r.npl + 4);
  r.memory_per_process_mb = arrays * patch_doubles * 8.0 / 1048576.0;
  const int procs_per_node = hybrid ? 1 : spec_.aps_per_node;
  r.fits_node_memory = r.memory_per_process_mb * procs_per_node <
                       spec_.node_memory_gb * 1024.0;
  return r;
}

}  // namespace yy::perf
