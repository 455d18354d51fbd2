#include "resilience/checkpoint2.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"

namespace yy::resilience {
namespace {

SphericalGrid tiny_grid() {
  GridSpec s;
  s.nr = 3;
  s.nt = 4;
  s.np = 4;
  s.r0 = 0.4;
  s.r1 = 1.0;
  s.t0 = 0.9;
  s.t1 = 2.2;
  s.p0 = -1.0;
  s.p1 = 1.0;
  s.ghost = 1;
  return SphericalGrid(s);
}

CheckpointMetaV2 meta_for_grid(const SphericalGrid& g, int panels) {
  CheckpointMetaV2 m;
  m.nr = g.Nr();
  m.nt = g.Nt();
  m.np = g.Np();
  m.panels = panels;
  m.time = 1.25;
  m.step = 42;
  m.dt = 3.5e-4;
  m.world_size = 4;
  m.world_rank = 1;
  m.pt = 1;
  m.pp = 2;
  m.panel = 0;
  return m;
}

void fill_pattern(mhd::Fields& s, double scale) {
  int k = 0;
  for (Field3* f : s.all())
    for (double& v : f->flat()) v = scale * ++k;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const char* name) {
  // Pid-unique: concurrent suite instances (e.g. ctest in two build
  // trees at once) must never clobber each other's files.
  return std::string(::testing::TempDir()) + "/" + name + "." +
         std::to_string(::getpid());
}

TEST(CheckpointV2, SinglePanelRoundTripBitExact) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_single.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));

  mhd::Fields t(g);
  CheckpointMetaV2 back;
  ASSERT_EQ(load_checkpoint_v2(path, back, &t, nullptr), LoadStatus::ok);
  EXPECT_EQ(back.panels, 1);
  EXPECT_DOUBLE_EQ(back.time, 1.25);
  EXPECT_EQ(back.step, 42);
  EXPECT_DOUBLE_EQ(back.dt, 3.5e-4);
  EXPECT_EQ(back.world_size, 4);
  EXPECT_EQ(back.world_rank, 1);
  EXPECT_EQ(back.pt, 1);
  EXPECT_EQ(back.pp, 2);
  EXPECT_EQ(back.panel, 0);
  for (int i = 0; i < mhd::Fields::kNumFields; ++i) {
    auto a = s.all()[static_cast<std::size_t>(i)]->flat();
    auto b = t.all()[static_cast<std::size_t>(i)]->flat();
    for (std::size_t j = 0; j < a.size(); ++j) ASSERT_EQ(a[j], b[j]);
  }
}

TEST(CheckpointV2, TwoPanelRoundTrip) {
  SphericalGrid g = tiny_grid();
  mhd::Fields yin(g), yang(g);
  fill_pattern(yin, 0.001);
  fill_pattern(yang, -0.002);
  const std::string path = temp_path("v2_two.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 2), &yin, &yang));

  mhd::Fields yin2(g), yang2(g);
  CheckpointMetaV2 back;
  ASSERT_EQ(load_checkpoint_v2(path, back, &yin2, &yang2), LoadStatus::ok);
  EXPECT_EQ(back.panels, 2);
  for (int i = 0; i < mhd::Fields::kNumFields; ++i) {
    const auto k = static_cast<std::size_t>(i);
    auto a = yin.all()[k]->flat(), b = yin2.all()[k]->flat();
    auto c = yang.all()[k]->flat(), d = yang2.all()[k]->flat();
    for (std::size_t j = 0; j < a.size(); ++j) ASSERT_EQ(a[j], b[j]);
    for (std::size_t j = 0; j < c.size(); ++j) ASSERT_EQ(c[j], d[j]);
  }
}

TEST(CheckpointV2, TwoPanelFileNeedsBothTargets) {
  SphericalGrid g = tiny_grid();
  mhd::Fields yin(g), yang(g);
  fill_pattern(yin, 0.001);
  fill_pattern(yang, -0.002);
  const std::string path = temp_path("v2_two1.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 2), &yin, &yang));
  mhd::Fields t(g);
  t.p(1, 1, 1) = 99.0;
  CheckpointMetaV2 back;
  EXPECT_EQ(load_checkpoint_v2(path, back, &t, nullptr),
            LoadStatus::bad_shape);
  EXPECT_DOUBLE_EQ(t.p(1, 1, 1), 99.0);  // failed load leaves state alone
}

TEST(CheckpointV2, HeaderPeekWithoutFields) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  const std::string path = temp_path("v2_peek.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));
  CheckpointMetaV2 back;
  ASSERT_EQ(load_checkpoint_v2(path, back, nullptr, nullptr), LoadStatus::ok);
  EXPECT_EQ(back.step, 42);
  EXPECT_EQ(back.nr, g.Nr());
}

TEST(CheckpointV2, ShapeMismatchRejectedWithoutTouchingState) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_shape.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));

  GridSpec big;
  big.nr = 5;
  big.nt = 6;
  big.np = 7;
  big.r0 = 0.4;
  big.r1 = 1.0;
  big.t0 = 0.9;
  big.t1 = 2.2;
  big.p0 = -1.0;
  big.p1 = 1.0;
  big.ghost = 2;
  SphericalGrid g2{big};
  mhd::Fields t(g2);
  t.p(1, 1, 1) = 99.0;
  CheckpointMetaV2 back;
  EXPECT_EQ(load_checkpoint_v2(path, back, &t, nullptr),
            LoadStatus::bad_shape);
  EXPECT_DOUBLE_EQ(t.p(1, 1, 1), 99.0);  // failed load leaves state alone
}

TEST(CheckpointV2, MissingFileIsIoError) {
  SphericalGrid g = tiny_grid();
  mhd::Fields t(g);
  CheckpointMetaV2 back;
  EXPECT_EQ(load_checkpoint_v2("/nonexistent/x.yyc2", back, &t, nullptr),
            LoadStatus::io_error);
}

TEST(CheckpointV2, EveryByteFlipIsRejected) {
  // Corruption sweep: XOR-ing any single byte of the file must yield a
  // clean rejection — never a crash, never LoadStatus::ok.
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_flip.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), 100u);

  const std::string victim = temp_path("v2_flip_victim.yyc2");
  mhd::Fields t(g);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    write_file(victim, bad);
    CheckpointMetaV2 back;
    const LoadStatus st = load_checkpoint_v2(victim, back, &t, nullptr);
    if (st != LoadStatus::ok) ++rejected;
  }
  EXPECT_EQ(rejected, good.size());
}

TEST(CheckpointV2, EveryTruncationIsRejected) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_trunc.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));
  const std::string good = read_file(path);

  const std::string victim = temp_path("v2_trunc_victim.yyc2");
  mhd::Fields t(g);
  std::size_t rejected = 0;
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(victim, good.substr(0, len));
    CheckpointMetaV2 back;
    if (load_checkpoint_v2(victim, back, &t, nullptr) != LoadStatus::ok)
      ++rejected;
  }
  EXPECT_EQ(rejected, good.size());
}

TEST(CheckpointV2, TrailingGarbageIsRejected) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  const std::string path = temp_path("v2_tail.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));
  write_file(path, read_file(path) + "x");
  mhd::Fields t(g);
  CheckpointMetaV2 back;
  EXPECT_EQ(load_checkpoint_v2(path, back, &t, nullptr),
            LoadStatus::bad_payload);
}

/// Targeted header-field fuzz: unlike the blind every-byte sweep above,
/// each case corrupts one *semantic* header field — magic, the header
/// length, the format version, the dims, the panel (section) count, a
/// section length — and where the field sits under the header CRC, the
/// CRC is re-patched so the corrupted value itself reaches the
/// validation logic.  Every case must fail the load cleanly with the
/// right status and leave a sentinel-filled target bitwise untouched.
TEST(CheckpointV2, HeaderFieldFuzzFailsCleanWithoutPartialApply) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_hdr.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));
  const std::string good = read_file(path);

  // Layout: magic [0,8); u32 header length H [8,12); header [12,12+H)
  // starting with u32 version, then i32 nr/nt/np/panels; u32 header CRC
  // [12+H,12+H+4); u64 payload length [12+H+4, ...).
  std::uint32_t hlen = 0;
  for (int i = 0; i < 4; ++i)
    hlen |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(good[8 + static_cast<std::size_t>(i)]))
            << (8 * i);
  ASSERT_GE(hlen, 56u);
  ASSERT_LT(12 + hlen + 4, good.size());
  const std::size_t crc_at = 12 + hlen;
  const std::size_t payload_len_at = crc_at + 4;

  // Recompute the header CRC so a fuzzed header *field* (not a stray
  // bit the CRC would mask) is what the semantic checks see.
  const auto patch_header_crc = [&](std::string& img) {
    const std::uint32_t crc = crc32(img.data() + 12, hlen);
    for (int i = 0; i < 4; ++i)
      img[crc_at + static_cast<std::size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFFu);
  };

  struct Case {
    const char* what;
    std::size_t at;       ///< byte offset to XOR
    unsigned char mask;
    bool repatch_crc;     ///< field lives under the header CRC
    LoadStatus want;
  };
  std::vector<Case> cases;
  for (std::size_t i = 0; i < 8; ++i)  // every magic byte
    cases.push_back({"magic", i, 0xFF, false, LoadStatus::bad_magic});
  for (std::size_t i = 8; i < 12; ++i)  // header length u32
    cases.push_back({"hlen", i, 0x01, false, LoadStatus::bad_header});
  for (std::size_t i = 12; i < 16; ++i)  // version u32 (CRC re-patched)
    cases.push_back({"version", i, 0x01, true, LoadStatus::bad_header});
  cases.push_back({"nr", 16, 0x02, true, LoadStatus::bad_shape});
  cases.push_back({"nt", 20, 0x02, true, LoadStatus::bad_shape});
  cases.push_back({"np", 24, 0x02, true, LoadStatus::bad_shape});
  // panels: 1 -> 3 is structurally invalid; 1 -> 0 is too.
  cases.push_back({"panels", 28, 0x02, true, LoadStatus::bad_header});
  cases.push_back({"panels", 28, 0x01, true, LoadStatus::bad_header});
  for (std::size_t i = 0; i < 8; ++i)  // section length u64
    cases.push_back({"payload_len", payload_len_at + i, 0x01, false,
                     LoadStatus::bad_payload});

  const std::string victim = temp_path("v2_hdr_victim.yyc2");
  for (const Case& c : cases) {
    std::string bad = good;
    bad[c.at] = static_cast<char>(bad[c.at] ^ c.mask);
    if (c.repatch_crc) patch_header_crc(bad);
    write_file(victim, bad);

    mhd::Fields t(g);
    fill_pattern(t, 99.5);  // sentinel: must survive bitwise
    mhd::Fields want_t(g);
    fill_pattern(want_t, 99.5);
    CheckpointMetaV2 back;
    const LoadStatus st = load_checkpoint_v2(victim, back, &t, nullptr);
    EXPECT_EQ(st, c.want) << c.what << " byte " << c.at << " -> "
                          << load_status_name(st);
    for (int fi = 0; fi < mhd::Fields::kNumFields; ++fi) {
      auto a = t.all()[static_cast<std::size_t>(fi)]->flat();
      auto b = want_t.all()[static_cast<std::size_t>(fi)]->flat();
      for (std::size_t j = 0; j < a.size(); ++j)
        ASSERT_EQ(a[j], b[j]) << c.what << ": partial apply at field " << fi;
    }
  }
}

TEST(CheckpointV2, FailBeforeCommitPreservesPreviousFile) {
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_atomic.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr));

  mhd::Fields s2(g);
  fill_pattern(s2, 7.0);
  EXPECT_FALSE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s2, nullptr,
                                  IoFaultSim::fail_before_commit));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  mhd::Fields t(g);
  CheckpointMetaV2 back;
  ASSERT_EQ(load_checkpoint_v2(path, back, &t, nullptr), LoadStatus::ok);
  EXPECT_EQ(t.rho.flat()[0], s.rho.flat()[0]);  // old content intact
}

TEST(CheckpointV2, TornCommitReportsSuccessButLoaderRejects) {
  // The nasty case: the writer believes the commit succeeded but the
  // published file is truncated.  Only the loader's CRC can catch it.
  SphericalGrid g = tiny_grid();
  mhd::Fields s(g);
  fill_pattern(s, 0.001);
  const std::string path = temp_path("v2_torn.yyc2");
  ASSERT_TRUE(save_checkpoint_v2(path, meta_for_grid(g, 1), &s, nullptr,
                                 IoFaultSim::torn_commit));
  ASSERT_TRUE(std::filesystem::exists(path));
  mhd::Fields t(g);
  CheckpointMetaV2 back;
  EXPECT_NE(load_checkpoint_v2(path, back, &t, nullptr), LoadStatus::ok);
}

}  // namespace
}  // namespace yy::resilience
