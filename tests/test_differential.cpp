// Differential mapper tests: round trips for all kinds, rotation
// invariance (the property DAB/HomePlug rely on), and the pi/4 grid
// structure.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "mapping/differential.hpp"

namespace ofdm::mapping {
namespace {

class AllDiffKinds : public ::testing::TestWithParam<DiffKind> {};

TEST_P(AllDiffKinds, RoundTripOverManySymbols) {
  const std::size_t carriers = 48;
  DifferentialMapper tx(GetParam(), carriers);
  DifferentialMapper rx(GetParam(), carriers);
  Rng rng(91);
  cvec mapped;
  bitvec back;
  for (int sym = 0; sym < 20; ++sym) {
    const bitvec bits = rng.bits(tx.bits_per_ofdm_symbol());
    tx.map_symbol_into(bits, mapped);
    rx.demap_symbol_into(mapped, back);
    EXPECT_EQ(back, bits) << "symbol " << sym;
  }
}

TEST_P(AllDiffKinds, FlatRotationIsTransparent) {
  // A static phase rotation (carrier phase offset) must not disturb a
  // differential link at all — the reason DAB needs no equalizer here.
  const std::size_t carriers = 16;
  DifferentialMapper tx(GetParam(), carriers);
  DifferentialMapper rx(GetParam(), carriers);
  const cplx rot{std::cos(1.234), std::sin(1.234)};

  // The receiver's first reference must also be the rotated one.
  cvec ref(carriers, cplx{1.0, 0.0});
  for (cplx& v : ref) v *= rot;
  rx.reset(ref);

  Rng rng(92);
  cvec mapped;
  bitvec back;
  for (int sym = 0; sym < 10; ++sym) {
    const bitvec bits = rng.bits(tx.bits_per_ofdm_symbol());
    tx.map_symbol_into(bits, mapped);
    for (cplx& v : mapped) v *= rot;
    rx.demap_symbol_into(mapped, back);
    EXPECT_EQ(back, bits);
  }
}

INSTANTIATE_TEST_SUITE_P(All, AllDiffKinds,
                         ::testing::Values(DiffKind::kDbpsk,
                                           DiffKind::kDqpsk,
                                           DiffKind::kPi4Dqpsk));

TEST(Differential, DbpskPhases) {
  DifferentialMapper m(DiffKind::kDbpsk, 1);
  cvec s;
  m.map_symbol_into(bitvec{0}, s);
  EXPECT_NEAR(s[0].real(), 1.0, 1e-12);  // no phase change
  m.map_symbol_into(bitvec{1}, s);
  EXPECT_NEAR(s[0].real(), -1.0, 1e-12);  // pi flip
}

TEST(Differential, DqpskGrayIncrements) {
  DifferentialMapper m(DiffKind::kDqpsk, 1);
  // 01 -> +pi/2 from the (1,0) reference.
  cvec s;
  m.map_symbol_into(bitvec{0, 1}, s);
  EXPECT_NEAR(s[0].real(), 0.0, 1e-12);
  EXPECT_NEAR(s[0].imag(), 1.0, 1e-12);
}

TEST(Differential, Pi4AlternatesBetweenGrids) {
  // pi/4-DQPSK: odd transmissions land on the 45-degree-rotated QPSK
  // grid, even ones back on the cardinal grid.
  DifferentialMapper m(DiffKind::kPi4Dqpsk, 1);
  Rng rng(93);
  cvec s;
  for (int sym = 0; sym < 8; ++sym) {
    m.map_symbol_into(rng.bits(2), s);
    const double phase = std::arg(s[0]);
    const long n = std::lround(phase / (kPi / 4.0));
    EXPECT_NEAR(phase, static_cast<double>(n) * kPi / 4.0, 1e-9);
    const bool odd_grid = (std::abs(n) % 2) == 1;
    EXPECT_EQ(odd_grid, sym % 2 == 0) << "symbol " << sym;
  }
}

TEST(Differential, UnitModulusAlways) {
  DifferentialMapper m(DiffKind::kPi4Dqpsk, 4);
  Rng rng(94);
  cvec s;
  for (int sym = 0; sym < 50; ++sym) {
    m.map_symbol_into(rng.bits(8), s);
    for (const cplx& v : s) {
      EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
    }
  }
}

TEST(Differential, ResetRestoresReference) {
  DifferentialMapper m(DiffKind::kDqpsk, 2);
  Rng rng(95);
  const bitvec bits = rng.bits(4);
  cvec first, again;
  m.map_symbol_into(bits, first);
  m.reset();
  m.map_symbol_into(bits, again);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(std::abs(first[i] - again[i]), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace ofdm::mapping
