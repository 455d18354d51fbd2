#include "perf/proginf.hpp"

#include <gtest/gtest.h>

#include "perf/sc_comparison.hpp"

namespace yy::perf {
namespace {

EsPerformanceModel model() {
  return EsPerformanceModel(EarthSimulatorSpec{}, EsCostParams{}, 3000.0);
}

TEST(ProgInf, ContainsListOneSections) {
  const std::string out = format_proginf(model(), kTable2Configs[0]);
  EXPECT_NE(out.find("MPI Program Information:"), std::string::npos);
  EXPECT_NE(out.find("Global Data of 4096 processes"), std::string::npos);
  EXPECT_NE(out.find("Vector Operation Ratio (%)"), std::string::npos);
  EXPECT_NE(out.find("Overall Data:"), std::string::npos);
  EXPECT_NE(out.find("GFLOPS (rel. to User Time)"), std::string::npos);
  EXPECT_NE(out.find("TFlops"), std::string::npos);
}

TEST(ProgInf, ReportsEveryCounterRow) {
  const std::string out = format_proginf(model(), kTable2Configs[0]);
  for (const char* row :
       {"Real Time (sec)", "User Time (sec)", "System Time (sec)",
        "Vector Time (sec)", "Instruction Count", "Vector Instruction Count",
        "Vector Element Count", "FLOP Count", "MOPS", "MFLOPS",
        "Average Vector Length", "Memory size used (MB)"}) {
    EXPECT_NE(out.find(row), std::string::npos) << row;
  }
}

TEST(ProgInf, DeterministicForFixedSeed) {
  const std::string a = format_proginf(model(), kTable2Configs[0]);
  const std::string b = format_proginf(model(), kTable2Configs[0]);
  EXPECT_EQ(a, b);
}

TEST(ProgInf, VectorTimeBelowUserTime) {
  const std::string out = format_proginf(model(), kTable2Configs[0]);
  // Sanity of the derived quantities: vector share is a proper subset
  // of user time.  Parse the Overall Data block loosely.
  const auto user_pos = out.find("User Time (sec)        :");
  const auto vec_pos = out.find("Vector Time (sec)      :");
  ASSERT_NE(user_pos, std::string::npos);
  ASSERT_NE(vec_pos, std::string::npos);
  const double user = std::stod(out.substr(user_pos + 25, 20));
  const double vec = std::stod(out.substr(vec_pos + 25, 20));
  EXPECT_LT(vec, user);
  EXPECT_GT(vec, 0.4 * user);  // mostly-vector code, like List 1
}

/// A measured-run summary with a plausible phase mix on two ranks.
obs::MetricsSummary measured_summary() {
  obs::TraceRecorder rec;
  for (int rank = 0; rank < 2; ++rank) {
    obs::RankTrace& t = rec.rank_trace(rank);
    t.set_step(0);
    std::int64_t now = 0;
    auto add = [&](obs::Phase p, std::int64_t dur_ns, std::uint64_t bytes) {
      t.record(p, now, now + dur_ns, bytes);
      now += dur_ns;
    };
    add(obs::Phase::rhs, 9'000'000, 0);  // sweeps incl. stage updates
    add(obs::Phase::boundary, 500'000, 0);
    add(obs::Phase::halo_wait, 700'000, 1 << 16);
    add(obs::Phase::overset_wait, 300'000, 1 << 14);
    add(obs::Phase::reduce, 100'000, 0);
  }
  return obs::collect_metrics(rec, {120, 9'000'000});
}

TEST(MeasuredProgInf, ListsPhaseRowsWithRealExtremes) {
  const std::string out = format_measured_proginf(measured_summary());
  EXPECT_NE(out.find("MPI Program Information (measured):"), std::string::npos);
  EXPECT_NE(out.find("Global Data of 2 processes"), std::string::npos);
  for (const char* phase :
       {"rhs", "halo_wait", "overset_wait", "boundary", "reduce"})
    EXPECT_NE(out.find(phase), std::string::npos) << phase;
  EXPECT_NE(out.find("Messages"), std::string::npos);
  EXPECT_NE(out.find("Message volume (MB)"), std::string::npos);
  // No io spans were recorded: no io row.
  EXPECT_EQ(out.find("  io "), std::string::npos);
}

TEST(MeasuredPhaseReport, ComparesMeasuredSharesAgainstModel) {
  const obs::MetricsSummary m = measured_summary();
  const std::string out =
      format_phase_report(m, model(), kTable2Configs[0]);
  EXPECT_NE(out.find("measured"), std::string::npos);
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("halo_wait"), std::string::npos);
  EXPECT_NE(out.find("overset_wait"), std::string::npos);
  EXPECT_NE(out.find("comm fraction:"), std::string::npos);
  // The measured comm share of the synthetic mix is (0.7+0.3)/10.6 ≈ 9.4%.
  EXPECT_NE(out.find("9.4%"), std::string::npos);
}

TEST(MeasuredPhaseReport, ModelPhaseFractionsAreConsistent) {
  const ModelResult r = model().predict(kTable2Configs[0]);
  EXPECT_GT(r.comp_fraction, 0.0);
  EXPECT_GT(r.halo_fraction, 0.0);
  EXPECT_GT(r.overset_fraction, 0.0);
  EXPECT_NEAR(r.comp_fraction + r.halo_fraction + r.overset_fraction, 1.0,
              1e-12);
  EXPECT_NEAR(r.halo_fraction + r.overset_fraction, r.comm_fraction, 1e-12);
  // The halo carries more volume and messages than the overset share.
  EXPECT_GT(r.halo_fraction, r.overset_fraction);
}

TEST(Table3, LiteratureRowsMatchPaperNumbers) {
  const auto rows = sc_literature_rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].tflops, 26.6);  // Shingu
  EXPECT_EQ(rows[0].nodes, 640);
  EXPECT_DOUBLE_EQ(rows[3].tflops, 5.0);   // Komatitsch
  EXPECT_EQ(rows[3].parallelization, "flat MPI");
}

TEST(Table3, PaperYycoreRowDerivedQuantities) {
  const ScEntry e = yycore_paper_row();
  // g.p./AP = 8.1e8 / (512·8) ≈ 2.0e5 (paper: 2.1e5).
  EXPECT_NEAR(e.gridpoints_per_ap(), 2.0e5, 0.2e5);
  // Flops/g.p. = 15.2e12/8.1e8 ≈ 18.8K (paper: 19K).
  EXPECT_NEAR(e.flops_per_gridpoint() / 1000.0, 19.0, 1.0);
}

TEST(Table3, ModelRowLandsNearPaperRow) {
  const ScEntry mine = yycore_model_row(model());
  const ScEntry paper = yycore_paper_row();
  EXPECT_EQ(mine.nodes, paper.nodes);
  EXPECT_NEAR(mine.efficiency, paper.efficiency, 0.12);
  EXPECT_EQ(mine.method, "finite difference");
}

TEST(Table3, FormatListsEveryRow) {
  auto rows = sc_literature_rows();
  rows.push_back(yycore_paper_row());
  const std::string out = format_table3(rows);
  EXPECT_NE(out.find("Shingu"), std::string::npos);
  EXPECT_NE(out.find("Komatitsch"), std::string::npos);
  EXPECT_NE(out.find("Kageyama"), std::string::npos);
  EXPECT_NE(out.find("finite difference / flat MPI"), std::string::npos);
}

}  // namespace
}  // namespace yy::perf
