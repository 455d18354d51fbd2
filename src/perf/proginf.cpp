#include "perf/proginf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.hpp"

namespace yy::perf {

namespace {

struct Jitter {
  double min_v, max_v;
  int min_rank, max_rank;
};

/// Deterministic ±0.7% spread and the ranks attaining it, mimicking the
/// per-process scatter of the hardware counters.
Jitter jitter(double avg, int nproc, Rng& rng) {
  const double lo = avg * (1.0 - 0.007 * rng.uniform(0.5, 1.0));
  const double hi = avg * (1.0 + 0.007 * rng.uniform(0.5, 1.0));
  return {lo, hi, static_cast<int>(rng.uniform() * nproc),
          static_cast<int>(rng.uniform() * nproc)};
}

void row(std::string& out, const char* label, double avg, int nproc, Rng& rng,
         const char* fmt = "%.3f", double max_cap = 1e300) {
  Jitter j = jitter(avg, nproc, rng);
  j.max_v = std::min(j.max_v, max_cap);
  char buf[256], v1[48], v2[48], v3[48];
  std::snprintf(v1, sizeof v1, fmt, j.min_v);
  std::snprintf(v2, sizeof v2, fmt, j.max_v);
  std::snprintf(v3, sizeof v3, fmt, avg);
  std::snprintf(buf, sizeof buf, "  %-28s: %16s [0,%4d] %16s [0,%4d] %16s\n",
                label, v1, j.min_rank, v2, j.max_rank, v3);
  out += buf;
}

void row_count(std::string& out, const char* label, double avg, int nproc,
               Rng& rng) {
  const Jitter j = jitter(avg, nproc, rng);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  %-28s: %16.0f [0,%4d] %16.0f [0,%4d] %16.0f\n", label,
                j.min_v, j.min_rank, j.max_v, j.max_rank, avg);
  out += buf;
}

}  // namespace

std::string format_proginf(const EsPerformanceModel& model,
                           const RunConfig& rc, const ProgInfOptions& opt) {
  const ModelResult m = model.predict(rc);
  Rng rng(opt.jitter_seed);
  const int nproc = rc.processors;

  const double steps = opt.real_time_s / m.time_per_step_s;
  const double user_time = opt.real_time_s * 0.976;   // minus MPI_Init/teardown
  const double system_time = opt.real_time_s * 0.010;
  const double vector_time = user_time * (1.0 - m.comm_fraction) *
                             m.vec_op_ratio * 0.79;   // pipeline-busy share
  const double flop_per_proc = m.flops_per_step * steps / nproc;
  // Plausible instruction decomposition: the vector elements are the
  // vector-op share of all operations; ops ≈ 2.1× flops for a
  // load/store-heavy stencil code.
  const double ops_per_proc = flop_per_proc * 2.1;
  const double vec_elems = ops_per_proc * m.vec_op_ratio;
  const double vec_insts = vec_elems / m.avg_vector_length;
  const double insts = vec_insts + ops_per_proc * (1.0 - m.vec_op_ratio) * 1.6;
  const double mops = ops_per_proc / user_time / 1e6;
  const double mflops = flop_per_proc / user_time / 1e6;
  const double mem_mb = 1040.0 + 80.0 * rng.uniform();

  std::string out;
  out += "MPI Program Information:\n";
  out += "========================\n";
  out += "Note: It is measured from MPI_Init till MPI_Finalize.\n";
  out += "[U,R] specifies the Universe and the Process Rank in the Universe.\n";
  char head[128];
  std::snprintf(head, sizeof head,
                "Global Data of %d processes: Min [U,R] Max [U,R] Average\n",
                nproc);
  out += head;
  out += "=============================\n";
  row(out, "Real Time (sec)", opt.real_time_s, nproc, rng);
  row(out, "User Time (sec)", user_time, nproc, rng);
  row(out, "System Time (sec)", system_time, nproc, rng);
  row(out, "Vector Time (sec)", vector_time, nproc, rng);
  row_count(out, "Instruction Count", insts, nproc, rng);
  row_count(out, "Vector Instruction Count", vec_insts, nproc, rng);
  row_count(out, "Vector Element Count", vec_elems, nproc, rng);
  row_count(out, "FLOP Count", flop_per_proc, nproc, rng);
  row(out, "MOPS", mops, nproc, rng);
  row(out, "MFLOPS", mflops, nproc, rng);
  row(out, "Average Vector Length", m.avg_vector_length, nproc, rng);
  row(out, "Vector Operation Ratio (%)", m.vec_op_ratio * 100.0, nproc, rng,
      "%.3f", 99.95);  // a ratio cannot exceed 100%
  row(out, "Memory size used (MB)", mem_mb, nproc, rng);
  out += "\nOverall Data:\n";
  out += "=============\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  Real Time (sec)        : %14.3f\n",
                opt.real_time_s);
  out += buf;
  std::snprintf(buf, sizeof buf, "  User Time (sec)        : %14.3f\n",
                user_time * nproc);
  out += buf;
  std::snprintf(buf, sizeof buf, "  System Time (sec)      : %14.3f\n",
                system_time * nproc);
  out += buf;
  std::snprintf(buf, sizeof buf, "  Vector Time (sec)      : %14.3f\n",
                vector_time * nproc);
  out += buf;
  std::snprintf(buf, sizeof buf, "  GOPS (rel. to User Time): %13.3f\n",
                mops * nproc / 1000.0);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  GFLOPS (rel. to User Time): %11.3f <--- %.1f TFlops\n",
                mflops * nproc / 1000.0, mflops * nproc / 1e6);
  out += buf;
  std::snprintf(buf, sizeof buf, "  Memory size used (GB)  : %14.3f\n",
                mem_mb * nproc / 1024.0);
  out += buf;
  return out;
}

std::string format_measured_proginf(const obs::MetricsSummary& m) {
  std::string out;
  out += "MPI Program Information (measured):\n";
  out += "===================================\n";
  out += "Note: spans recorded by the obs tracing layer, one row per phase.\n";
  out += "[U,R] specifies the Universe and the Process Rank in the Universe.\n";
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "Global Data of %d processes: Min [U,R] Max [U,R] Average\n",
                static_cast<int>(m.ranks.size()));
  out += buf;
  out += "=============================\n";
  for (int p = 0; p < obs::kNumPhases; ++p) {
    double min_v = 1e300, max_v = -1e300, sum = 0.0;
    int min_rank = 0, max_rank = 0;
    std::uint64_t count = 0;
    for (const obs::RankMetrics& rm : m.ranks) {
      const obs::PhaseMetrics& pm = rm.phase[static_cast<std::size_t>(p)];
      count += pm.count;
      sum += pm.seconds;
      if (pm.seconds < min_v) { min_v = pm.seconds; min_rank = rm.rank; }
      if (pm.seconds > max_v) { max_v = pm.seconds; max_rank = rm.rank; }
    }
    if (count == 0) continue;
    std::snprintf(buf, sizeof buf,
                  "  %-21s (sec): %16.6f [0,%4d] %16.6f [0,%4d] %16.6f\n",
                  obs::phase_name(static_cast<obs::Phase>(p)), min_v, min_rank,
                  max_v, max_rank,
                  sum / static_cast<double>(m.ranks.size()));
    out += buf;
  }
  out += "\nOverall Data:\n";
  out += "=============\n";
  std::snprintf(buf, sizeof buf, "  Real Time (sec)        : %14.6f\n",
                m.wall_seconds);
  out += buf;
  std::snprintf(buf, sizeof buf, "  Traced Time (sec)      : %14.6f\n",
                m.traced_seconds());
  out += buf;
  std::snprintf(buf, sizeof buf, "  Steps                  : %14lld\n",
                static_cast<long long>(m.steps));
  out += buf;
  std::snprintf(buf, sizeof buf, "  Messages               : %14llu\n",
                static_cast<unsigned long long>(m.traffic.messages));
  out += buf;
  std::snprintf(buf, sizeof buf, "  Message volume (MB)    : %14.3f\n",
                static_cast<double>(m.traffic.bytes) / 1048576.0);
  out += buf;
  return out;
}

std::vector<PhaseDriftRow> phase_drift(const obs::MetricsSummary& m,
                                       const EsPerformanceModel& model,
                                       const RunConfig& rc) {
  const ModelResult r = model.predict(rc);
  const double traced = m.traced_seconds();

  // Measured shares of the traced step time; the model's comparable
  // buckets are compute (rhs, which includes the fused stage update,
  // + boundary), halo and overset.  reduce/io are outside the model's
  // step decomposition.
  const double meas_comp = m.phase(obs::Phase::rhs).seconds +
                           m.phase(obs::Phase::boundary).seconds;
  const struct {
    const char* label;
    double measured_s;
    double predicted_share;  // < 0: not modelled
  } raw[] = {
      {"compute", meas_comp, r.comp_fraction},
      {"halo_wait", m.phase(obs::Phase::halo_wait).seconds, r.halo_fraction},
      {"overset_wait", m.phase(obs::Phase::overset_wait).seconds,
       r.overset_fraction},
      {"reduce", m.phase(obs::Phase::reduce).seconds, -1.0},
      {"io", m.phase(obs::Phase::io).seconds, -1.0},
  };
  std::vector<PhaseDriftRow> rows;
  for (const auto& rr : raw) {
    if (rr.measured_s == 0.0 && rr.predicted_share < 0.0) continue;
    PhaseDriftRow row;
    row.label = rr.label;
    row.measured_s = rr.measured_s;
    row.measured_share = traced > 0.0 ? rr.measured_s / traced : 0.0;
    row.predicted_share = rr.predicted_share;
    if (rr.predicted_share >= 0.0 && row.measured_share > 0.0)
      row.pred_over_meas = rr.predicted_share / row.measured_share;
    rows.push_back(row);
  }
  return rows;
}

std::string format_phase_report(const obs::MetricsSummary& m,
                                const EsPerformanceModel& model,
                                const RunConfig& rc) {
  const ModelResult r = model.predict(rc);
  const double traced = m.traced_seconds();
  std::string out;
  out += "Per-phase time: measured (this machine) vs es_model prediction\n";
  out += "==============================================================\n";
  out += "  phase          measured s    share   predicted   pred/meas\n";

  char buf[192];
  for (const PhaseDriftRow& row : phase_drift(m, model, rc)) {
    if (row.predicted_share >= 0.0) {
      std::snprintf(buf, sizeof buf,
                    "  %-14s %10.6f %7.1f%% %10.1f%% %11.2f\n",
                    row.label.c_str(), row.measured_s,
                    100.0 * row.measured_share, 100.0 * row.predicted_share,
                    row.pred_over_meas);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-14s %10.6f %7.1f%%          -           -\n",
                    row.label.c_str(), row.measured_s,
                    100.0 * row.measured_share);
    }
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  comm fraction: measured %.1f%% vs predicted %.1f%% "
                "(ES @ %d procs)\n",
                100.0 *
                    (m.phase(obs::Phase::halo_wait).seconds +
                     m.phase(obs::Phase::overset_wait).seconds) /
                    (traced > 0.0 ? traced : 1.0),
                100.0 * r.comm_fraction, rc.processors);
  out += buf;
  return out;
}

std::string format_lane_report(const EsPerformanceModel& model,
                               const RunConfig& rc,
                               const MeasuredLaneProfile& measured) {
  const ModelResult r = model.predict(rc);
  const double es_width =
      static_cast<double>(model.spec().vector_register_length);
  const double meas_width = static_cast<double>(
      measured.width > 0 ? measured.width : 1);
  std::string out;
  out += "Vector columns: es_model (modeled) vs SIMD lanes (measured)\n";
  out += "===========================================================\n";
  out += "  column                      modeled (ES)   measured (this host)\n";
  char buf[192];
  std::snprintf(buf, sizeof buf, "  hardware lane width      %13.0f %22.0f\n",
                es_width, meas_width);
  out += buf;
  std::snprintf(buf, sizeof buf, "  average vector length    %13.1f %22.2f\n",
                r.avg_vector_length, measured.avg_vector_length);
  out += buf;
  std::snprintf(buf, sizeof buf, "  normalized length (/w)   %12.1f%% %21.1f%%\n",
                100.0 * r.avg_vector_length / es_width,
                100.0 * measured.avg_vector_length / meas_width);
  out += buf;
  std::snprintf(buf, sizeof buf, "  vector operation ratio   %12.1f%% %21.1f%%\n",
                100.0 * r.vec_op_ratio, 100.0 * measured.vector_coverage);
  out += buf;
  return out;
}

}  // namespace yy::perf
