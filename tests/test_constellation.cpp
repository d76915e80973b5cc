// Constellation tests: the exact 802.11a-1999 17.3.5.7 mapping tables,
// unit average energy, Gray-neighbour property and demapping round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "mapping/constellation.hpp"

namespace ofdm::mapping {
namespace {

TEST(Constellation, BpskMappingMatchesStandard) {
  const Constellation c = Constellation::make(Scheme::kBpsk);
  EXPECT_NEAR(c.map(bitvec{0}).real(), -1.0, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1}).real(), 1.0, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1}).imag(), 0.0, 1e-12);
}

TEST(Constellation, QpskMappingMatchesStandard) {
  const Constellation c = Constellation::make(Scheme::kQpsk);
  const double a = 1.0 / std::sqrt(2.0);
  // 802.11a: first bit -> I, second -> Q; 0 -> -1, 1 -> +1.
  EXPECT_NEAR(c.map(bitvec{0, 0}).real(), -a, 1e-12);
  EXPECT_NEAR(c.map(bitvec{0, 0}).imag(), -a, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1, 0}).real(), a, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1, 0}).imag(), -a, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1, 1}).imag(), a, 1e-12);
}

TEST(Constellation, Qam16MappingMatchesStandard) {
  const Constellation c = Constellation::make(Scheme::kQam16);
  const double s = std::sqrt(10.0);
  // Table 17-9: b0b1 (I): 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3.
  EXPECT_NEAR(c.map(bitvec{0, 0, 0, 0}).real(), -3.0 / s, 1e-12);
  EXPECT_NEAR(c.map(bitvec{0, 1, 0, 0}).real(), -1.0 / s, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1, 1, 0, 0}).real(), 1.0 / s, 1e-12);
  EXPECT_NEAR(c.map(bitvec{1, 0, 0, 0}).real(), 3.0 / s, 1e-12);
  // Q bits b2b3 follow the same table.
  EXPECT_NEAR(c.map(bitvec{0, 0, 1, 0}).imag(), 3.0 / s, 1e-12);
}

TEST(Constellation, Qam64NormalizationIsSqrt42) {
  const Constellation c = Constellation::make(Scheme::kQam64);
  EXPECT_NEAR(c.norm_factor(), std::sqrt(42.0), 1e-12);
}

class AllSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(AllSchemes, UnitAverageEnergy) {
  const Constellation c = Constellation::make(GetParam());
  double e = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) e += std::norm(c.point(i));
  EXPECT_NEAR(e / static_cast<double>(c.size()), 1.0, 1e-12);
}

TEST_P(AllSchemes, MapDemapRoundTripAllPatterns) {
  const Constellation c = Constellation::make(GetParam());
  for (std::size_t i = 0; i < c.size(); ++i) {
    bitvec bits;
    append_uint(bits, i, c.bits());
    const cplx sym = c.map(bits);
    bitvec back;
    c.demap(sym, back);
    EXPECT_EQ(back, bits) << "pattern " << i;
  }
}

TEST_P(AllSchemes, DemapToleratesHalfDecisionDistanceNoise) {
  const Constellation c = Constellation::make(GetParam());
  // Minimum axis spacing is 2/norm; noise below half of that in each
  // dimension cannot cross a decision boundary.
  const double margin = 0.9 / c.norm_factor();
  Rng rng(81);
  for (std::size_t i = 0; i < c.size(); ++i) {
    bitvec bits;
    append_uint(bits, i, c.bits());
    const cplx noisy = c.map(bits) + cplx{rng.uniform(-margin, margin),
                                          rng.uniform(-margin, margin)};
    bitvec back;
    c.demap(noisy, back);
    EXPECT_EQ(back, bits);
  }
}

TEST_P(AllSchemes, GrayNeighboursDifferInOneBit) {
  const Constellation c = Constellation::make(GetParam());
  const double step = 2.0 / c.norm_factor();
  // For every point, its +step neighbour on the I axis (if it exists)
  // must differ in exactly one bit.
  for (std::size_t i = 0; i < c.size(); ++i) {
    const cplx p = c.point(i);
    for (std::size_t j = 0; j < c.size(); ++j) {
      const cplx q = c.point(j);
      if (std::abs(q.real() - p.real() - step) < 1e-9 &&
          std::abs(q.imag() - p.imag()) < 1e-9) {
        bitvec bi;
        bitvec bj;
        append_uint(bi, i, c.bits());
        append_uint(bj, j, c.bits());
        EXPECT_EQ(hamming_distance(bi, bj), 1u)
            << "points " << i << " and " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, AllSchemes,
                         ::testing::Values(Scheme::kBpsk, Scheme::kQpsk,
                                           Scheme::kQam16, Scheme::kQam64,
                                           Scheme::kQam256));

TEST(Constellation, RectangularOddBitLoads) {
  // 3 bits: 2 on I (4 levels), 1 on Q (2 levels) -> 8 points, unit energy.
  const Constellation c = Constellation::make_rect(2, 1);
  EXPECT_EQ(c.bits(), 3u);
  EXPECT_EQ(c.size(), 8u);
  double e = 0.0;
  for (std::size_t i = 0; i < 8; ++i) e += std::norm(c.point(i));
  EXPECT_NEAR(e / 8.0, 1.0, 1e-12);
}

TEST(Constellation, MapIntoChunksCorrectly) {
  const Constellation c = Constellation::make(Scheme::kQpsk);
  Rng rng(82);
  const bitvec bits = rng.bits(64);
  cvec symbols;
  c.map_into(bits, symbols);
  ASSERT_EQ(symbols.size(), 32u);
  bitvec back;
  c.demap_into(symbols, back);
  EXPECT_EQ(back, bits);
}

TEST(Constellation, RejectsBadSizes) {
  const Constellation c = Constellation::make(Scheme::kQam16);
  EXPECT_THROW(c.map(bitvec{1, 0}), DimensionError);
  cvec out;
  EXPECT_THROW(c.map_into(bitvec(6, 0), out), DimensionError);
}

}  // namespace
}  // namespace ofdm::mapping

// --- soft demapping ---------------------------------------------------------

namespace ofdm::mapping {
namespace {

/// One symbol through the stream demapper with one noise variance.
rvec soft(const Constellation& c, cplx symbol, double noise_var) {
  rvec llr;
  c.demap_soft_into(std::span<const cplx>(&symbol, 1),
                    std::span<const double>(&noise_var, 1), llr);
  return llr;
}

TEST(SoftDemap, SignsMatchHardDecisionsOnCleanSymbols) {
  for (Scheme s : {Scheme::kBpsk, Scheme::kQpsk, Scheme::kQam16,
                   Scheme::kQam64}) {
    const Constellation c = Constellation::make(s);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const rvec llr = soft(c, c.point(i), 1.0);
      ASSERT_EQ(llr.size(), c.bits());
      for (std::size_t b = 0; b < c.bits(); ++b) {
        const bool bit_one = (i >> (c.bits() - 1 - b)) & 1u;
        // llr > 0 means bit 0: sign must agree with the true bit.
        if (bit_one) {
          EXPECT_LT(llr[b], 0.0) << scheme_name(s) << " pt " << i;
        } else {
          EXPECT_GT(llr[b], 0.0) << scheme_name(s) << " pt " << i;
        }
      }
    }
  }
}

TEST(SoftDemap, MagnitudeGrowsWithDistanceFromBoundary) {
  // BPSK maps bit 0 -> -1 and bit 1 -> +1, so a positive received
  // value implies bit 1 (negative LLR under the llr>0 => bit-0
  // convention), with confidence growing away from the boundary.
  const Constellation c = Constellation::make(Scheme::kBpsk);
  const rvec near_llr = soft(c, cplx{0.1, 0.0}, 1.0);
  const rvec far_llr = soft(c, cplx{1.0, 0.0}, 1.0);
  EXPECT_LT(near_llr[0], 0.0);
  EXPECT_LT(far_llr[0], near_llr[0]);
  EXPECT_GT(std::abs(far_llr[0]), std::abs(near_llr[0]));
}

TEST(SoftDemap, NoiseVarianceScalesLlrs) {
  const Constellation c = Constellation::make(Scheme::kQam16);
  const rvec a = soft(c, cplx{0.5, 0.4}, 1.0);
  const rvec b = soft(c, cplx{0.5, 0.4}, 2.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], 2.0 * b[i], 1e-12);
  }
}

TEST(SoftDemap, RejectsNonPositiveNoise) {
  const Constellation c = Constellation::make(Scheme::kQpsk);
  EXPECT_THROW(soft(c, cplx{0, 0}, 0.0), Error);
  // One variance, or one per symbol: nothing in between.
  const cvec syms(3);
  const rvec two_vars(2, 1.0);
  rvec out;
  EXPECT_THROW(c.demap_soft_into(syms, two_vars, out), DimensionError);
}

/// The exhaustive max-log scan: for every symbol and bit, the minimum
/// of dr*dr + di*di over all points whose bit is 0 (d0) and 1 (d1),
/// scanned in index order with the `d < best` update from 1e300.
/// Returns d1 - d0 per bit, which the LLR divides by the variance.
rvec exhaustive_gaps(const Constellation& c, const cvec& syms) {
  const std::size_t n_bits = c.bits();
  cvec points(c.size());
  for (std::size_t idx = 0; idx < points.size(); ++idx) {
    points[idx] = c.point(idx);
  }
  rvec gaps(syms.size() * n_bits);
  for (std::size_t j = 0; j < syms.size(); ++j) {
    double d0[16];
    double d1[16];
    std::fill_n(d0, n_bits, 1e300);
    std::fill_n(d1, n_bits, 1e300);
    for (std::size_t idx = 0; idx < points.size(); ++idx) {
      const double dr = syms[j].real() - points[idx].real();
      const double di = syms[j].imag() - points[idx].imag();
      const double d = dr * dr + di * di;
      for (std::size_t b = 0; b < n_bits; ++b) {
        double& best = ((idx >> (n_bits - 1 - b)) & 1u) ? d1[b] : d0[b];
        if (d < best) best = d;
      }
    }
    for (std::size_t b = 0; b < n_bits; ++b) {
      gaps[j * n_bits + b] = d1[b] - d0[b];
    }
  }
  return gaps;
}

/// `n` cells for the oracle comparison: exact points, exact and
/// near ties between levels, signed zeros, cells whose squared
/// distances overflow, subnormal cells, NaN and inf cells, then random
/// cells over and beyond the constellation.
cvec oracle_inputs(const Constellation& c, std::size_t n,
                   std::uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  Rng rng(seed);
  cvec s;
  for (int k = 0; k < 4; ++k) {
    s.push_back(c.point(rng.uniform_int(c.size())));
  }
  // Midpoints of a few pairs of points: their coordinates are halfway
  // between two levels (exactly so around 0).
  for (int k = 0; k < 4; ++k) {
    const cplx a = c.point(rng.uniform_int(c.size()));
    const cplx b = c.point(rng.uniform_int(c.size()));
    s.push_back((a + b) * 0.5);
    s.push_back({(a + b).real() * 0.5, a.imag()});
  }
  for (double re : {0.0, -0.0}) {
    for (double im : {0.0, -0.0}) s.push_back({re, im});
  }
  s.push_back({1e160, 0.25});
  s.push_back({-0.25, 1.2e160});
  s.push_back({-1e160, 1e160});
  s.push_back({sub, -sub});
  s.push_back({-1e-310, 3e-309});
  s.push_back({c.point(0).real(), 1e-160});  // subnormal dQ² on a PAM
  s.push_back({nan, 0.5});
  s.push_back({0.5, nan});
  s.push_back({nan, nan});
  s.push_back({inf, 0.5});
  s.push_back({-0.5, -inf});
  while (s.size() < n) {
    s.push_back({rng.uniform(-1.6, 1.6), rng.uniform(-1.6, 1.6)});
  }
  return s;
}

TEST(SoftDemap, MatchesExhaustiveOracle) {
  // Every shape Constellation accepts; fewer cells where the oracle
  // scans 2^15 or 2^16 points per cell.
  for (std::size_t bits_i = 1; bits_i <= 8; ++bits_i) {
    for (std::size_t bits_q = 0; bits_q <= 8; ++bits_q) {
      const Constellation c = Constellation::make_rect(bits_i, bits_q);
      const std::size_t n_bits = c.bits();
      const cvec syms =
          oracle_inputs(c, n_bits >= 15 ? 40 : 100, 17 * bits_i + bits_q);
      const rvec gaps = exhaustive_gaps(c, syms);
      for (const double var : {1e-300, 0.37, 1e12}) {
        for (const bool per_symbol : {false, true}) {
          rvec nv(per_symbol ? syms.size() : 1, var);
          if (per_symbol) {
            for (std::size_t j = 0; j < nv.size(); ++j) nv[j] *= 1 + j % 3;
          }
          // Counts around the block size leave partial last blocks.
          for (const std::size_t count :
               {std::size_t{0}, std::size_t{1}, std::size_t{31},
                std::size_t{32}, std::size_t{33}, syms.size()}) {
            const std::span<const cplx> in(syms.data(), count);
            const std::span<const double> vars =
                per_symbol ? std::span<const double>(nv.data(), count)
                           : std::span<const double>(nv);
            rvec out(7, -1.0);
            c.demap_soft_into(in, vars, out);
            rvec want(count * n_bits);
            for (std::size_t k = 0; k < want.size(); ++k) {
              want[k] = gaps[k] / vars[per_symbol ? k / n_bits : 0];
            }
            ASSERT_EQ(out.size(), want.size());
            EXPECT_TRUE(want.empty() ||
                        std::memcmp(out.data(), want.data(),
                                    want.size() * sizeof(double)) == 0)
                << bits_i << "x" << bits_q << " count " << count
                << " variance " << var
                << (per_symbol ? " per symbol" : " broadcast");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ofdm::mapping
