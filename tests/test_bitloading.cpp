// DMT bit-loading tests: allocation behaviour and per-tone map/demap
// round trips across all supported loads.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapping/bitloading.hpp"

namespace ofdm::mapping {
namespace {

TEST(BitAllocation, FollowsShannonGap) {
  // SNR 30 dB with a 9.8 dB gap: b = floor(log2(1 + 10^((30-9.8)/10)))
  //   = floor(log2(1 + 104.7)) = floor(6.72) = 6.
  const rvec snr = {30.0};
  const BitTable t = compute_bit_allocation(snr, 9.8);
  EXPECT_EQ(t[0], 6);
}

TEST(BitAllocation, MonotoneInSnr) {
  rvec snr(40);
  for (std::size_t i = 0; i < snr.size(); ++i) {
    snr[i] = static_cast<double>(i) * 1.5;  // 0 .. 58.5 dB
  }
  const BitTable t = compute_bit_allocation(snr, 6.0);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GE(t[i], t[i - 1]);
  }
}

TEST(BitAllocation, RespectsCapsAndMinimum) {
  const rvec snr = {-10.0, 3.0, 8.0, 90.0};
  const BitTable t = compute_bit_allocation(snr, 0.0, 15, 2);
  EXPECT_EQ(t[0], 0);   // below minimum -> unused
  EXPECT_EQ(t[1], 0);   // would be 1 bit < min 2 -> unused
  EXPECT_GE(t[2], 2);
  EXPECT_EQ(t[3], 15);  // capped
}

TEST(BitAllocation, TotalBitsAccounting) {
  const BitTable t = {0, 2, 4, 15, 0, 7};
  EXPECT_EQ(table_bits(t), 28u);
}

TEST(DmtMapper, MapDemapRoundTripMixedTable) {
  BitTable table;
  for (std::uint8_t b = 0; b <= 15; ++b) table.push_back(b);
  DmtMapper mapper(table);
  EXPECT_EQ(mapper.bits_per_symbol(), 120u);

  Rng rng(101);
  const bitvec bits = rng.bits(mapper.bits_per_symbol());
  cvec tones;
  mapper.map_symbol_into(bits, tones);
  ASSERT_EQ(tones.size(), table.size());
  bitvec back;
  mapper.demap_symbol_into(tones, back);
  EXPECT_EQ(back, bits);
}

// Gray-coded PAM level of an n-bit axis label, computed directly.
double gray_level(std::size_t gray, std::size_t n) {
  std::size_t b = gray;
  for (std::size_t shift = 1; shift < n; shift <<= 1) b ^= b >> shift;
  return 2.0 * static_cast<double>(b) -
         static_cast<double>((std::size_t{1} << n) - 1);
}

TEST(DmtMapper, LutRunsMatchConstellationMapForEveryLoad) {
  // Runs of 1..4 tones per load 1..15, unused tones between runs: every
  // run goes through its constellation's LUT sweep (or, above the LUT
  // size, the computed path) and must equal map() tone by tone, and the
  // closed-form rectangular Gray point.
  BitTable table;
  for (std::uint8_t load = 1; load <= kMaxBitsPerTone; ++load) {
    table.insert(table.end(), 1 + load % 4, load);
    if (load % 3 == 0) table.push_back(0);
  }
  DmtMapper mapper(table);
  Rng rng(105);
  cvec tones;
  for (int trial = 0; trial < 20; ++trial) {
    const bitvec bits = rng.bits(mapper.bits_per_symbol());
    mapper.map_symbol_into(bits, tones);
    std::size_t pos = 0;
    for (std::size_t t = 0; t < table.size(); ++t) {
      const std::size_t load = table[t];
      if (load == 0) {
        EXPECT_EQ(tones[t], cplx(0.0, 0.0));
        continue;
      }
      const std::size_t bi = (load + 1) / 2;
      const std::size_t bq = load / 2;
      const auto sym = std::span<const std::uint8_t>(bits).subspan(pos, load);
      const Constellation c = Constellation::make_rect(bi, bq);
      EXPECT_EQ(tones[t], c.map(sym)) << "tone " << t << " load " << load;
      std::size_t gi = 0, gq = 0;
      for (std::size_t i = 0; i < bi; ++i) gi = (gi << 1) | sym[i];
      for (std::size_t i = bi; i < load; ++i) gq = (gq << 1) | sym[i];
      const auto energy = [](std::size_t n) {
        const double m = static_cast<double>(std::size_t{1} << n);
        return n == 0 ? 0.0 : (m * m - 1.0) / 3.0;
      };
      const cplx want =
          cplx{gray_level(gi, bi), bq == 0 ? 0.0 : gray_level(gq, bq)} /
          std::sqrt(energy(bi) + energy(bq));
      EXPECT_EQ(tones[t], want) << "tone " << t << " load " << load;
      pos += load;
    }
  }
}

class PerToneLoad : public ::testing::TestWithParam<int> {};

TEST_P(PerToneLoad, SingleToneRoundTripAllowsNoise) {
  const auto load = static_cast<std::uint8_t>(GetParam());
  DmtMapper mapper(BitTable{load});
  Rng rng(102 + GetParam());
  // Decision distance shrinks with the constellation size; stay safely
  // inside half the minimum axis spacing.
  const double axis_levels =
      std::pow(2.0, std::ceil(static_cast<double>(load) / 2.0));
  const double margin = 0.4 / (axis_levels * 2.0);
  cvec tones;
  bitvec back;
  for (int trial = 0; trial < 50; ++trial) {
    const bitvec bits = rng.bits(load);
    mapper.map_symbol_into(bits, tones);
    tones[0] += cplx{rng.uniform(-margin, margin),
                     rng.uniform(-margin, margin)};
    mapper.demap_symbol_into(tones, back);
    EXPECT_EQ(back, bits);
  }
}

INSTANTIATE_TEST_SUITE_P(Loads1To15, PerToneLoad,
                         ::testing::Range(1, 16));

TEST(DmtMapper, UnusedTonesStayZero) {
  DmtMapper mapper(BitTable{0, 4, 0, 2, 0});
  Rng rng(103);
  cvec tones;
  mapper.map_symbol_into(rng.bits(6), tones);
  EXPECT_EQ(std::abs(tones[0]), 0.0);
  EXPECT_EQ(std::abs(tones[2]), 0.0);
  EXPECT_EQ(std::abs(tones[4]), 0.0);
  EXPECT_GT(std::abs(tones[1]), 0.0);
}

TEST(DmtMapper, UnitAveragePowerPerLoadedTone) {
  // Average over many random symbols: each loaded tone ~ unit power.
  DmtMapper mapper(BitTable{8, 8, 8, 8});
  Rng rng(104);
  double p = 0.0;
  const int n = 4000;
  cvec tones;
  for (int i = 0; i < n; ++i) {
    mapper.map_symbol_into(rng.bits(32), tones);
    for (const cplx& t : tones) p += std::norm(t);
  }
  EXPECT_NEAR(p / (4.0 * n), 1.0, 0.05);
}

TEST(DmtMapper, RejectsOversizedLoads) {
  EXPECT_THROW(DmtMapper(BitTable{16}), Error);
  DmtMapper ok(BitTable{4});
  cvec tones;
  EXPECT_THROW(ok.map_symbol_into(bitvec(3, 0), tones), DimensionError);
}

}  // namespace
}  // namespace ofdm::mapping
