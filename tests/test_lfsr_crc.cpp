// Scrambler/LFSR tests, anchored to the 127-bit 802.11a scrambler
// sequence (IEEE 802.11a-1999 17.3.5.4).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "coding/lfsr.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"

namespace ofdm::coding {
namespace {

TEST(Lfsr, WlanScramblerSequenceAllOnesSeed) {
  // IEEE 802.11a-1999 figure 16: with an all-ones initial state the
  // generator repeats this 127-bit sequence.
  const std::string expected_start =
      "00001110 11110010 11001001 00000010 00100110 00101110";
  Lfsr lfsr(7, (1u << 6) | (1u << 3), 0x7F);
  const bitvec seq = lfsr.sequence(48);
  EXPECT_EQ(to_string(seq), to_string(bits_from_string(expected_start)));
}

TEST(Lfsr, WlanScramblerPeriodIs127) {
  Lfsr lfsr(7, (1u << 6) | (1u << 3), 0x7F);
  const bitvec first = lfsr.sequence(127);
  const bitvec second = lfsr.sequence(127);
  EXPECT_EQ(first, second);  // maximal-length sequence repeats
}

TEST(Lfsr, MaximalLengthVisitsAllStates) {
  // x^4 + x^3 + 1 is primitive: period 15.
  Lfsr lfsr(4, (1u << 3) | (1u << 2), 0x1);
  std::set<std::uint64_t> states;
  for (int i = 0; i < 15; ++i) {
    states.insert(lfsr.state());
    lfsr.next(1);
  }
  EXPECT_EQ(states.size(), 15u);
  EXPECT_EQ(lfsr.state(), 0x1u);  // back at the seed after one period
}

// The per-bit register the chunked generator must reproduce.
class BitLfsr {
 public:
  BitLfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed)
      : mask_((std::uint64_t{1} << degree) - 1),
        taps_(taps),
        state_(seed & mask_) {}

  std::uint8_t step() {
    std::uint8_t fb = 0;
    for (std::uint64_t x = state_ & taps_; x != 0; x &= x - 1) fb ^= 1;
    state_ = ((state_ << 1) | fb) & mask_;
    return fb;
  }
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t mask_;
  std::uint64_t taps_;
  std::uint64_t state_;
};

// Draws keystream from `lfsr` through next(), append() and apply() in
// random-sized calls (0 to a few hundred bits, so chunks split across
// calls) and checks every bit and the register against the reference.
void expect_keystream_matches(Lfsr& lfsr, BitLfsr& ref, Rng& rng,
                              int calls) {
  for (int call = 0; call < calls; ++call) {
    switch (rng.uniform_int(3)) {
      case 0: {
        const auto n = static_cast<unsigned>(rng.uniform_int(65));
        std::uint64_t want = 0;
        for (unsigned i = 0; i < n; ++i) want = (want << 1) | ref.step();
        ASSERT_EQ(lfsr.next(n), want) << "next(" << n << ")";
        break;
      }
      case 1: {
        const std::size_t n = rng.uniform_int(300);
        bitvec got = {1, 0, 1};
        lfsr.append(got, n);
        ASSERT_EQ(got.size(), n + 3);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[3 + i], ref.step()) << "append bit " << i;
        }
        break;
      }
      default: {
        // Any byte value: apply() keeps only bit 0 of byte ^ prbs.
        const bytevec data = rng.bytes(rng.uniform_int(300));
        bytevec got = data;
        lfsr.apply(got);
        for (std::size_t i = 0; i < data.size(); ++i) {
          ASSERT_EQ(got[i], (data[i] ^ ref.step()) & 1u) << "apply bit " << i;
        }
        break;
      }
    }
    ASSERT_EQ(lfsr.state(), ref.state());
  }
}

void expect_generator_matches(unsigned degree, std::uint64_t taps,
                              std::uint64_t seed, std::uint64_t reseed,
                              Rng& rng) {
  SCOPED_TRACE("degree " + std::to_string(degree) + " taps " +
               std::to_string(taps) + " seed " + std::to_string(seed));
  Lfsr lfsr(degree, taps, seed);
  BitLfsr ref(degree, taps, seed);
  expect_keystream_matches(lfsr, ref, rng, 40);
  lfsr.reset(reseed);
  BitLfsr ref2(degree, taps, reseed);
  expect_keystream_matches(lfsr, ref2, rng, 20);
}

TEST(Lfsr, KeystreamMatchesPerBitRegisterForProfilePolynomials) {
  struct Poly {
    unsigned degree;
    std::uint64_t taps;
    std::uint64_t seed;
  };
  // The scramblers of all ten profiles (802.11a/g, DRM/DAB and the
  // three DSL profiles share theirs), the transmitter's filler and the
  // pilot PRBSs.
  const Poly polys[] = {
      {7, (1u << 6) | (1u << 3), 0x5D},         // 802.11a/g scrambler
      {9, (1u << 8) | (1u << 4), 0x1FF},        // DRM and DAB dispersal
      {15, (1u << 14) | (1u << 13), 0x00A9},    // DVB-T
      {15, (1u << 14) | (1u << 13), 0x4D4E},    // 802.16a
      {10, (1u << 9) | (1u << 2), 0x3FF},       // HomePlug
      {23, (1u << 22) | (1u << 17), 0x3FFFFF},  // ADSL, ADSL2+, VDSL
      {15, (1u << 14) | 1u, 0x2A2A},            // transmitter filler
      {7, (1u << 6) | (1u << 3), 0x7F},         // 802.11a pilot PRBS
      {11, (1u << 10) | (1u << 1), 0x7FF},      // DVB-T pilot PRBS
      {11, (1u << 10) | (1u << 8), 0x7FF},      // 802.16a pilot PRBS
  };
  Rng rng(35);
  for (const Poly& p : polys) {
    expect_generator_matches(p.degree, p.taps, p.seed, p.seed ^ 1u, rng);
  }
}

TEST(Lfsr, KeystreamMatchesPerBitRegisterForRandomPolynomials) {
  Rng rng(36);
  for (int trial = 0; trial < 300; ++trial) {
    const auto degree = static_cast<unsigned>(1 + rng.uniform_int(63));
    const std::uint64_t mask = (std::uint64_t{1} << degree) - 1;
    // Mostly sparse taps (the shape scramblers use), some dense ones.
    std::uint64_t taps = rng.next_u64() & mask;
    if (trial % 3 != 0) {
      taps = (std::uint64_t{1} << rng.uniform_int(degree)) |
             (std::uint64_t{1} << rng.uniform_int(degree));
    }
    const std::uint64_t seed = (rng.next_u64() & mask) | 1u;
    const std::uint64_t reseed = (rng.next_u64() & mask) | 1u;
    expect_generator_matches(degree, taps, seed, reseed, rng);
  }
}

TEST(Lfsr, RejectsZeroSeed) {
  EXPECT_THROW(Lfsr(7, 1u << 6, 0), Error);
}

TEST(Scrambler, IsItsOwnInverse) {
  Rng rng(31);
  const bitvec data = rng.bits(500);
  Scrambler a = make_wlan_scrambler();
  Scrambler b = make_wlan_scrambler();
  EXPECT_EQ(b.process(a.process(data)), data);
}

TEST(Scrambler, ResetRestartsSequence) {
  Rng rng(32);
  const bitvec data = rng.bits(64);
  Scrambler s = make_wlan_scrambler(0x5D);
  const bitvec first = s.process(data);
  s.reset();
  EXPECT_EQ(s.process(data), first);
}

TEST(Scrambler, DvbAndHomeplugVariantsRoundTrip) {
  Rng rng(33);
  const bitvec data = rng.bits(300);
  {
    Scrambler a = make_dvb_scrambler();
    Scrambler b = make_dvb_scrambler();
    EXPECT_EQ(b.process(a.process(data)), data);
  }
  {
    Scrambler a = make_homeplug_scrambler();
    Scrambler b = make_homeplug_scrambler();
    EXPECT_EQ(b.process(a.process(data)), data);
  }
}

TEST(Scrambler, ActuallyRandomizes) {
  const bitvec zeros(200, 0);
  Scrambler s = make_wlan_scrambler();
  const bitvec out = s.process(zeros);
  std::size_t ones = 0;
  for (std::uint8_t b : out) ones += b;
  EXPECT_GT(ones, 60u);
  EXPECT_LT(ones, 140u);
}

}  // namespace
}  // namespace ofdm::coding
