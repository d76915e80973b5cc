// Published-value checks for the coding layer: the K=7 (133,171)
// industry convolutional code against a hand-computed codeword and its
// known free distance, RS(255,239) at its guaranteed correction radius,
// and exact interleaver round-trip identity for every standard's
// deployed geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "coding/convolutional.hpp"
#include "coding/interleaver.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/viterbi.hpp"
#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/profiles.hpp"
#include "core/standard.hpp"

namespace {

using namespace ofdm;

// ---------------------------------------------------------------------
// K=7 rate-1/2, generators 133/171 octal: the industry code every coded
// standard in the family inherits (802.11a 17.3.5.5, DVB-T, DAB, ...).

// Hand-computed terminated codeword for the message 1 0 1 1 0 0 0 1:
// window convention bit(K-1)=newest, outputs G0=133 then G1=171 per
// step, six flush zeros appended. Worked by evaluating
// parity(window & G) step by step.
const std::uint8_t kMessage[] = {1, 0, 1, 1, 0, 0, 0, 1};
const std::uint8_t kCodeword[] = {1, 1, 0, 1, 0, 0, 0, 1, 1, 0,
                                  1, 0, 0, 0, 0, 1, 0, 0, 0, 0,
                                  1, 1, 0, 0, 1, 0, 1, 1};

TEST(ConvK7Published, KnownCodeword) {
  const coding::ConvEncoder enc(coding::k7_industry_code());
  const bitvec coded = enc.encode_terminated(
      std::span<const std::uint8_t>(kMessage, std::size(kMessage)));
  ASSERT_EQ(coded.size(), std::size(kCodeword));
  for (std::size_t i = 0; i < coded.size(); ++i) {
    EXPECT_EQ(coded[i], kCodeword[i]) << "coded bit " << i;
  }
}

TEST(ConvK7Published, ViterbiRecoversHandDecodedVector) {
  const coding::ViterbiDecoder dec(coding::k7_industry_code());
  bitvec received(kCodeword, kCodeword + std::size(kCodeword));
  // dfree = 10: any error pattern of weight <= 4 is within the
  // guaranteed radius floor((dfree - 1) / 2).
  received[2] ^= 1;
  received[9] ^= 1;
  received[17] ^= 1;
  received[25] ^= 1;
  coding::ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_terminated_into(received, scratch, out);
  ASSERT_EQ(out.size(), std::size(kMessage));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], kMessage[i]) << "message bit " << i;
  }
}

TEST(ConvK7Published, FreeDistanceIsTen) {
  // Exhaustive minimum codeword weight over all nonzero messages up to
  // 10 information bits (leading 1 fixed: the code is linear and
  // time-invariant, so every short error event is a shift of one of
  // these). The published dfree of the (133,171) code is 10.
  const coding::ConvEncoder enc(coding::k7_industry_code());
  std::size_t min_weight = SIZE_MAX;
  for (std::size_t len = 1; len <= 10; ++len) {
    const std::size_t variants = std::size_t{1} << (len - 1);
    for (std::size_t v = 0; v < variants; ++v) {
      bitvec msg;
      msg.reserve(len);
      msg.push_back(1);
      for (std::size_t b = 1; b < len; ++b) {
        msg.push_back(static_cast<std::uint8_t>((v >> (b - 1)) & 1u));
      }
      const bitvec coded = enc.encode_terminated(msg);
      const std::size_t weight = static_cast<std::size_t>(
          std::count(coded.begin(), coded.end(), std::uint8_t{1}));
      min_weight = std::min(min_weight, weight);
    }
  }
  EXPECT_EQ(min_weight, 10u);
}

// ---------------------------------------------------------------------
// RS(255,239): the G.992-family mother code, t = 8.

TEST(ReedSolomonPublished, Rs255_239CorrectsEightByteErrors) {
  const coding::ReedSolomon rs(255, 239);
  ASSERT_EQ(rs.t(), 8u);

  Rng rng = Rng::substream(4242, 0, 0);
  bytevec message(239);
  for (auto& b : message) {
    b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  }
  const bytevec codeword = rs.encode(message);
  ASSERT_EQ(codeword.size(), 255u);

  bytevec received = codeword;
  // Eight byte errors at spread positions, each a guaranteed change.
  const std::size_t pos[] = {0, 31, 64, 100, 150, 200, 238, 254};
  for (const std::size_t p : pos) received[p] ^= 0x5A;

  const auto r = rs.decode(received);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.errors_corrected, 8u);
  EXPECT_EQ(r.message, message);
}

TEST(ReedSolomonPublished, Rs255_239FailsBeyondRadius) {
  const coding::ReedSolomon rs(255, 239);
  Rng rng = Rng::substream(4243, 0, 0);
  bytevec message(239);
  for (auto& b : message) {
    b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  }
  bytevec received = rs.encode(message);
  // Nine errors exceed t = 8. A bounded-distance decoder either
  // reports failure or mis-corrects to a DIFFERENT codeword; the one
  // outcome the radius guarantee forbids is a successful decode of the
  // original message (it lies 9 > t away from the received word).
  for (std::size_t i = 0; i < 9; ++i) received[i * 20] ^= 0xA5;
  const auto r = rs.decode(received);
  EXPECT_FALSE(r.success && r.message == message);
}

// ---------------------------------------------------------------------
// Interleaver round-trip identity at every standard's deployed
// geometry, built exactly as the RX Mother Model builds them.

TEST(InterleaverPublished, RoundTripIdentityForEveryStandardGeometry) {
  std::size_t exercised = 0;
  bitvec mixed, round;
  for (const core::Standard s : core::kStandardFamily) {
    const core::OfdmParams p = core::profile_for(s);
    const std::string name = core::standard_name(s);
    const std::size_t cbps = core::coded_bits_per_symbol(p);

    std::optional<coding::PermutationInterleaver> il;
    std::size_t block = 0;
    switch (p.interleaver.kind) {
      case core::InterleaverKind::kNone:
        continue;
      case core::InterleaverKind::kWlan:
        il = coding::make_wlan_interleaver(
            cbps, mapping::bits_per_symbol(p.scheme));
        block = cbps;
        break;
      case core::InterleaverKind::kBlock:
        il = coding::make_block_interleaver(
            p.interleaver.rows, cbps / p.interleaver.rows);
        block = cbps;
        break;
      case core::InterleaverKind::kCell: {
        const auto layout = core::make_tone_layout(p);
        il = coding::make_random_interleaver(layout.data_bins.size(),
                                             p.interleaver.seed);
        block = layout.data_bins.size();
        break;
      }
    }
    ASSERT_TRUE(il.has_value()) << name;
    ASSERT_EQ(il->block_size(), block) << name;
    ++exercised;

    // The mapping must be a permutation of 0..N-1 ...
    std::vector<std::size_t> sorted = il->mapping();
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      ASSERT_EQ(sorted[i], i) << name << ": not a permutation";
    }

    // ... and deinterleave must invert interleave exactly.
    Rng rng = Rng::substream(17, exercised, 0);
    const bitvec data = rng.bits(block);
    mixed.resize(block);
    round.resize(block);
    il->interleave_into(std::span<const std::uint8_t>(data),
                        std::span<std::uint8_t>(mixed));
    il->deinterleave_into(std::span<const std::uint8_t>(mixed),
                          std::span<std::uint8_t>(round));
    EXPECT_EQ(round, data) << name;
  }
  // WLAN a/g, DRM (cell), DAB, DVB-T, 802.16a, HomePlug interleave;
  // the DMT standards do not.
  EXPECT_EQ(exercised, 7u);
}

}  // namespace
