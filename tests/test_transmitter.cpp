// Mother Model (Transmitter) tests: burst structure, payload sizing,
// the reconfiguration API, and frame bookkeeping.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/preamble.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"

namespace ofdm::core {
namespace {

TEST(Transmitter, UnconfiguredThrows) {
  Transmitter tx;
  EXPECT_FALSE(tx.configured());
  EXPECT_THROW(tx.params(), ConfigError);
  EXPECT_THROW(tx.modulate(bitvec{1, 0, 1}), ConfigError);
}

TEST(Transmitter, BurstLengthMatchesStructure) {
  const OfdmParams p = profile_wlan_80211a();
  Transmitter tx(p);
  Rng rng(1);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);
  EXPECT_EQ(burst.preamble_samples, 320u);
  EXPECT_EQ(burst.data_symbols, p.frame.symbols_per_frame);
  // 320 preamble + symbols * 80, plus the trailing window ramp.
  EXPECT_EQ(burst.samples.size(),
            320 + burst.data_symbols * p.symbol_len() + p.window_ramp);
}

TEST(Transmitter, RecommendedPayloadFillsFrameExactly) {
  for (Standard s : kStandardFamily) {
    Transmitter tx(profile_for(s));
    const std::size_t n = tx.recommended_payload_bits();
    ASSERT_GT(n, 0u) << standard_name(s);
    EXPECT_EQ(tx.coded_length(n),
              tx.params().frame.symbols_per_frame * tx.bits_per_symbol())
        << standard_name(s);
    // One more bit must not fit.
    EXPECT_GT(tx.coded_length(n + 1),
              tx.params().frame.symbols_per_frame * tx.bits_per_symbol())
        << standard_name(s);
  }
}

TEST(Transmitter, WlanPayloadArithmetic) {
  // BPSK rate-1/2: 24 data bits/symbol, minus 6 tail bits.
  Transmitter tx(profile_wlan_80211a(WlanRate::k6));
  EXPECT_EQ(tx.bits_per_symbol(), 48u);
  EXPECT_EQ(tx.recommended_payload_bits(), 10 * 24 - 6);
}

TEST(Transmitter, OversizedPayloadStretchesTheFrame) {
  Transmitter tx(profile_wlan_80211a(WlanRate::k12));
  Rng rng(2);
  const std::size_t rec = tx.recommended_payload_bits();
  const auto burst = tx.modulate(rng.bits(3 * rec));
  EXPECT_GT(burst.data_symbols, tx.params().frame.symbols_per_frame);
  EXPECT_EQ(burst.coded_bits % tx.bits_per_symbol(), 0u);
}

TEST(Transmitter, EmptyPayloadStillProducesAFrame) {
  Transmitter tx(profile_wlan_80211a());
  const auto burst = tx.modulate({});
  EXPECT_EQ(burst.data_symbols, tx.params().frame.symbols_per_frame);
  EXPECT_GT(burst.samples.size(), 0u);
}

TEST(Transmitter, OutputPowerIsNormalized) {
  Rng rng(3);
  for (Standard s : {Standard::kWlan80211a, Standard::kDvbT,
                     Standard::kAdsl, Standard::kDab}) {
    Transmitter tx(profile_for(s));
    const auto burst = tx.modulate(
        rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(),
                                       4000)));
    // Null symbols dilute the average; measure after the null section.
    const auto body = std::span<const cplx>(burst.samples)
                          .subspan(burst.null_samples);
    EXPECT_NEAR(mean_power(body), 1.0, 0.2) << standard_name(s);
  }
}

TEST(Transmitter, ReconfigurationReusesTheInstance) {
  // The paper's core workflow: one Mother Model object, reconfigured
  // through the family.
  Transmitter tx;
  Rng rng(4);
  for (Standard s : kStandardFamily) {
    tx.configure(profile_for(s));
    EXPECT_EQ(tx.params().standard, s);
    const auto burst = tx.modulate(
        rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(),
                                       1000)));
    EXPECT_GT(burst.samples.size(), 0u) << standard_name(s);
  }
}

TEST(Transmitter, FailedReconfigurationKeepsOldConfig) {
  Transmitter tx(profile_wlan_80211a());
  OfdmParams bad = profile_wlan_80211a();
  bad.tone_map.clear();  // invalid
  EXPECT_THROW(tx.configure(bad), ConfigError);
  EXPECT_EQ(tx.params().standard, Standard::kWlan80211a);
  // Still functional.
  Rng rng(5);
  EXPECT_NO_THROW(tx.modulate(rng.bits(100)));
}

TEST(Transmitter, IdenticalPayloadGivesIdenticalBurst) {
  Transmitter tx(profile_wlan_80211a());
  Rng rng(6);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto a = tx.modulate(payload);
  const auto b = tx.modulate(payload);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  EXPECT_LT(max_abs_error(a.samples, b.samples), 1e-15);
}

TEST(Transmitter, DabBurstStartsWithNullSymbol) {
  OfdmParams p = profile_dab(DabMode::kII);
  p.frame.symbols_per_frame = 4;
  Transmitter tx(p);
  Rng rng(7);
  const auto burst = tx.modulate(rng.bits(500));
  EXPECT_EQ(burst.null_samples, p.frame.null_samples);
  for (std::size_t i = 0; i < burst.null_samples; ++i) {
    EXPECT_EQ(std::abs(burst.samples[i]), 0.0);
  }
  EXPECT_EQ(burst.preamble_samples, p.symbol_len());  // phase reference
}

TEST(Transmitter, EncodePayloadMatchesCodedLength) {
  Rng rng(8);
  for (Standard s : {Standard::kWlan80211a, Standard::kDvbT,
                     Standard::kWman80216a}) {
    Transmitter tx(profile_for(s));
    for (std::size_t bits : {std::size_t{0}, std::size_t{1},
                             std::size_t{100}, std::size_t{1001}}) {
      const bitvec payload = rng.bits(bits);
      EXPECT_EQ(tx.encode_payload(payload).size(), tx.coded_length(bits))
          << standard_name(s) << " @ " << bits;
    }
  }
}

TEST(Transmitter, PreambleSamplesMatchBurstHead) {
  Transmitter tx(profile_wlan_80211a());
  Rng rng(9);
  const auto burst = tx.modulate(rng.bits(200));
  const cvec pre = wlan_preamble(profile_wlan_80211a());
  ASSERT_EQ(pre.size(), burst.preamble_samples);
  for (std::size_t i = 0; i < pre.size(); ++i) {
    EXPECT_NEAR(std::abs(pre[i] - burst.samples[i]), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace ofdm::core
