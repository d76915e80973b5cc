// Convolutional coding tests: generator correctness, puncturing geometry,
// and Viterbi decoding under clean, erased and corrupted conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coding/convolutional.hpp"
#include "coding/viterbi.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"

namespace ofdm::coding {
namespace {

TEST(ConvEncoder, ImpulseResponseMatchesGenerators) {
  // A single 1 followed by zeros reads the generator taps out directly.
  const ConvEncoder enc(k7_industry_code());
  bitvec input(7, 0);
  input[0] = 1;
  const bitvec out = enc.encode(input);
  // Stream A taps 133 octal = 1011011: outputs over 7 steps.
  const bitvec a_expect = bits_from_string("1011011");
  const bitvec b_expect = bits_from_string("1111001");  // 171 octal
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(out[2 * t], a_expect[t]) << "A stream step " << t;
    EXPECT_EQ(out[2 * t + 1], b_expect[t]) << "B stream step " << t;
  }
}

TEST(ConvEncoder, RateOutputLengths) {
  const ConvEncoder enc(k7_industry_code());
  Rng rng(41);
  const bitvec msg = rng.bits(120);
  const bitvec coded = enc.encode_terminated(msg);
  EXPECT_EQ(coded.size(), (msg.size() + 6) * 2);

  EXPECT_EQ(puncture(coded, puncture_none()).size(), coded.size());
  EXPECT_EQ(puncture(coded, puncture_2_3()).size(), coded.size() * 3 / 4);
  EXPECT_EQ(puncture(coded, puncture_3_4()).size(), coded.size() * 2 / 3);
}

TEST(Puncture, FusedEncodeMatchesEncodeThenPuncture) {
  // The transmitter's one-pass encoder must reproduce the two-step
  // reference at every rate, for message lengths that end the puncture
  // period at each phase, into a reused output buffer.
  Rng rng(43);
  const ConvEncoder enc(k7_industry_code());
  bitvec fused;
  for (const PuncturePattern& pat :
       {puncture_none(), puncture_2_3(), puncture_3_4()}) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 61u, 200u}) {
      const bitvec msg = rng.bits(n);
      enc.encode_punctured_into(msg, pat, fused);
      EXPECT_EQ(fused, puncture(enc.encode_terminated(msg), pat))
          << "message bits " << n << ", period " << pat.period();
    }
  }
}

TEST(Puncture, DepunctureRestoresGeometryWithErasures) {
  Rng rng(42);
  const ConvEncoder enc(k7_industry_code());
  const bitvec msg = rng.bits(60);
  const bitvec coded = enc.encode_terminated(msg);
  const PuncturePattern pat = puncture_3_4();
  const bitvec punct = puncture(coded, pat);
  bitvec rest;
  depuncture_into(punct, pat, coded.size(), rest);
  ASSERT_EQ(rest.size(), coded.size());
  std::size_t erasures = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == kErasure) {
      ++erasures;
    } else {
      EXPECT_EQ(rest[i], coded[i]);
    }
  }
  EXPECT_EQ(erasures, coded.size() - punct.size());
}

class ViterbiRates : public ::testing::TestWithParam<int> {
 protected:
  PuncturePattern pattern() const {
    switch (GetParam()) {
      case 0: return puncture_none();
      case 1: return puncture_2_3();
      default: return puncture_3_4();
    }
  }
};

TEST_P(ViterbiRates, CleanDecodingIsExact) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(43);
  // Message sized for whole puncture periods.
  const bitvec msg = rng.bits(240 - 6);
  const PuncturePattern pat = pattern();
  const bitvec coded = puncture(enc.encode_terminated(msg), pat);
  bitvec rest, out;
  ViterbiDecoder::Scratch scratch;
  depuncture_into(coded, pat, (msg.size() + 6) * 2, rest);
  dec.decode_terminated_into(rest, scratch, out);
  EXPECT_EQ(out, msg);
}

TEST_P(ViterbiRates, CorrectsScatteredBitErrors) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(44);
  const bitvec msg = rng.bits(240 - 6);
  const PuncturePattern pat = pattern();
  bitvec coded = puncture(enc.encode_terminated(msg), pat);
  // Flip well-separated bits (spacing >> constraint length).
  for (std::size_t i = 20; i + 50 < coded.size(); i += 97) {
    coded[i] ^= 1u;
  }
  bitvec rest, out;
  ViterbiDecoder::Scratch scratch;
  depuncture_into(coded, pat, (msg.size() + 6) * 2, rest);
  dec.decode_terminated_into(rest, scratch, out);
  EXPECT_EQ(out, msg);
}

INSTANTIATE_TEST_SUITE_P(AllRates, ViterbiRates, ::testing::Values(0, 1, 2));

TEST(Viterbi, BurstsBeyondCapacityFail) {
  // A long error burst must defeat the code (sanity: the decoder is not
  // an oracle). 40 consecutive flips >> free distance.
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(46);
  const bitvec msg = rng.bits(200);
  bitvec coded = enc.encode_terminated(msg);
  for (std::size_t i = 100; i < 140; ++i) coded[i] ^= 1u;
  ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_terminated_into(coded, scratch, out);
  EXPECT_NE(out, msg);
}

TEST(Viterbi, ShorterConstraintLengthCode) {
  // K=3 (7,5) textbook code round-trips too (the decoder is generic).
  ConvCode code;
  code.constraint_length = 3;
  code.generators = {05, 07};
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(47);
  const bitvec msg = rng.bits(80);
  ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_terminated_into(enc.encode_terminated(msg), scratch, out);
  EXPECT_EQ(out, msg);
}

}  // namespace
}  // namespace ofdm::coding

// --- soft-decision decoding -----------------------------------------------

namespace ofdm::coding {
namespace {

rvec to_llr(const bitvec& bits, double confidence) {
  rvec llr(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    llr[i] = bits[i] ? -confidence : confidence;
  }
  return llr;
}

TEST(ViterbiSoft, CleanLlrsDecodeExactly) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(48);
  const bitvec msg = rng.bits(200);
  const rvec llr = to_llr(enc.encode_terminated(msg), 4.0);
  ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_soft_terminated_into(llr, scratch, out);
  EXPECT_EQ(out, msg);
}

TEST(ViterbiSoft, ConfidenceWeightingBeatsHardDecisions) {
  // Construct a case hard decisions get wrong but soft gets right:
  // several flipped bits carry tiny confidence, the rest are strong.
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(49);
  const bitvec msg = rng.bits(120);
  const bitvec coded = enc.encode_terminated(msg);

  bitvec hard = coded;
  rvec llr = to_llr(coded, 4.0);
  // Flip a dense error burst (too much for hard decisions), but mark
  // every flipped position as low-confidence.
  for (std::size_t i = 60; i < 72; ++i) {
    hard[i] ^= 1u;
    llr[i] = hard[i] ? -0.05 : 0.05;
  }
  ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_terminated_into(hard, scratch, out);
  EXPECT_NE(out, msg);  // hard fails
  dec.decode_soft_terminated_into(llr, scratch, out);
  EXPECT_EQ(out, msg);  // soft recovers
}

TEST(ViterbiSoft, DepunctureSoftInsertsZeroLlrs) {
  const ConvCode code = k7_industry_code();
  const ConvEncoder enc(code);
  const ViterbiDecoder dec(code);
  Rng rng(50);
  const bitvec msg = rng.bits(120);
  const PuncturePattern pat = puncture_3_4();
  const bitvec punct = puncture(enc.encode_terminated(msg), pat);
  rvec llr;
  depuncture_soft_into(to_llr(punct, 2.0), pat, (msg.size() + 6) * 2, llr);
  std::size_t zeros = 0;
  for (double l : llr) zeros += l == 0.0;
  EXPECT_EQ(zeros, (msg.size() + 6) * 2 - punct.size());
  ViterbiDecoder::Scratch scratch;
  bitvec out;
  dec.decode_soft_terminated_into(llr, scratch, out);
  EXPECT_EQ(out, msg);
}

}  // namespace
}  // namespace ofdm::coding

// --- exhaustive maximum-likelihood oracle -----------------------------------
//
// For short messages every code word can be enumerated, so the decoder's
// answer can be checked against the true minimum-metric code word instead
// of only against the transmitted one.

namespace ofdm::coding {
namespace {

ConvCode k3_code() {
  ConvCode code;
  code.constraint_length = 3;
  code.generators = {05, 07};
  return code;
}

const PuncturePattern& oracle_pattern(int rate) {
  static const PuncturePattern patterns[] = {puncture_none(), puncture_2_3(),
                                             puncture_3_4()};
  return patterns[rate];
}

/// Every message of `len` bits (index i = message bits LSB-first) and its
/// terminated mother code word.
std::vector<std::pair<bitvec, bitvec>> code_book(const ConvCode& code,
                                                 std::size_t len) {
  const ConvEncoder enc(code);
  std::vector<std::pair<bitvec, bitvec>> book;
  for (std::size_t i = 0; i < (std::size_t{1} << len); ++i) {
    bitvec msg;
    for (std::size_t b = 0; b < len; ++b) {
      msg.push_back(static_cast<std::uint8_t>((i >> b) & 1u));
    }
    bitvec cw = enc.encode_terminated(msg);
    book.emplace_back(std::move(msg), std::move(cw));
  }
  return book;
}

std::size_t hamming(const bitvec& received, const bitvec& cw) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < cw.size(); ++i) {
    d += received[i] != kErasure && received[i] != cw[i];
  }
  return d;
}

/// The soft correlation metric, summed in the decoder's order (per
/// trellis step, then along the path) so equal paths compare exactly.
double correlation(const rvec& llr, const bitvec& cw, unsigned n_out) {
  double metric = 0.0;
  for (std::size_t t = 0; t < cw.size() / n_out; ++t) {
    double step = 0.0;
    for (unsigned j = 0; j < n_out; ++j) {
      const double l = llr[t * n_out + j];
      step += cw[t * n_out + j] ? l : -l;
    }
    metric += step;
  }
  return metric;
}

class ViterbiOracle
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  ConvCode code() const {
    return std::get<0>(GetParam()) == 7 ? k7_industry_code() : k3_code();
  }
  const PuncturePattern& pattern() const {
    return oracle_pattern(std::get<1>(GetParam()));
  }
};

TEST_P(ViterbiOracle, SoftDecodingReturnsTheMinimumMetricMessage) {
  const ConvCode c = code();
  const ViterbiDecoder dec(c);
  Rng rng(60 + 10 * c.constraint_length + std::get<1>(GetParam()));
  rvec llr;
  ViterbiDecoder::Scratch scratch;
  bitvec decoded;
  for (std::size_t len = 1; len <= 10; ++len) {
    const auto book = code_book(c, len);
    const std::size_t mother = book[0].second.size();
    const std::size_t kept = puncture(book[0].second, pattern()).size();
    for (int trial = 0; trial < 4; ++trial) {
      // Continuous random LLRs: no two code words tie.
      rvec punct(kept);
      for (double& l : punct) l = rng.uniform(-2.0, 2.0);
      depuncture_soft_into(punct, pattern(), mother, llr);
      std::size_t best = 0;
      double best_metric =
          correlation(llr, book[0].second, c.num_outputs());
      for (std::size_t i = 1; i < book.size(); ++i) {
        const double m = correlation(llr, book[i].second, c.num_outputs());
        if (m < best_metric) {
          best_metric = m;
          best = i;
        }
      }
      dec.decode_soft_terminated_into(llr, scratch, decoded);
      EXPECT_EQ(decoded, book[best].first)
          << "K=" << c.constraint_length << " len=" << len
          << " trial=" << trial;
    }
  }
}

TEST_P(ViterbiOracle, HardDecodingReachesTheMinimumHammingDistance) {
  const ConvCode c = code();
  const ConvEncoder enc(c);
  const ViterbiDecoder dec(c);
  Rng rng(80 + 10 * c.constraint_length + std::get<1>(GetParam()));
  bitvec received;
  ViterbiDecoder::Scratch scratch;
  bitvec decoded;
  for (std::size_t len = 1; len <= 10; ++len) {
    const auto book = code_book(c, len);
    const std::size_t mother = book[0].second.size();
    const std::size_t kept = puncture(book[0].second, pattern()).size();
    for (int trial = 0; trial < 4; ++trial) {
      // Random bits plus random erasures on top of the stolen ones.
      depuncture_into(rng.bits(kept), pattern(), mother, received);
      for (std::uint8_t& r : received) {
        if (rng.uniform(0.0, 1.0) < 0.15) r = kErasure;
      }
      std::size_t best = hamming(received, book[0].second);
      for (const auto& entry : book) {
        best = std::min(best, hamming(received, entry.second));
      }
      dec.decode_terminated_into(received, scratch, decoded);
      ASSERT_EQ(decoded.size(), len);
      EXPECT_EQ(hamming(received, enc.encode_terminated(decoded)), best)
          << "K=" << c.constraint_length << " len=" << len
          << " trial=" << trial;
    }
  }
}

std::string oracle_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const kRates[] = {"r12", "r23", "r34"};
  return "K" + std::to_string(std::get<0>(info.param)) + "_" +
         kRates[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndRates, ViterbiOracle,
    ::testing::Combine(::testing::Values(3, 7), ::testing::Values(0, 1, 2)),
    oracle_name);

}  // namespace
}  // namespace ofdm::coding
