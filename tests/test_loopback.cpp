// Integration tests: transmit -> receive loopback for every member of the
// standard family. A behavioural model and its inverse must round-trip
// payload bits losslessly over an ideal channel — this is experiment E6's
// pass criterion and the backbone of the whole verification strategy.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm {
namespace {

using core::OfdmParams;
using core::Standard;

class FamilyLoopback : public ::testing::TestWithParam<Standard> {};

TEST_P(FamilyLoopback, NoiselessRoundTripIsLossless) {
  const OfdmParams params = core::profile_for(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  const std::size_t n_bits =
      std::min<std::size_t>(tx.recommended_payload_bits(), 4096);
  ASSERT_GT(n_bits, 0u);
  const bitvec payload = rng.bits(n_bits);

  const auto burst = tx.modulate(payload);
  ASSERT_FALSE(burst.samples.empty());

  const auto result = rx.demodulate(burst.samples, payload.size());
  ASSERT_EQ(result.payload.size(), payload.size());
  EXPECT_EQ(result.rs_blocks_failed, 0u);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    errors += payload[i] != result.payload[i];
  }
  EXPECT_EQ(errors, 0u) << "standard: " << core::standard_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStandards, FamilyLoopback,
    ::testing::ValuesIn(core::kStandardFamily),
    [](const ::testing::TestParamInfo<Standard>& info) {
      std::string name = core::standard_name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Loopback across every 802.11a data rate (all modulation/coding pairs).
class WlanRateLoopback : public ::testing::TestWithParam<core::WlanRate> {};

TEST_P(WlanRateLoopback, NoiselessRoundTripIsLossless) {
  const OfdmParams params = core::profile_wlan_80211a(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(42);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);
  const auto result = rx.demodulate(burst.samples, payload.size());
  ASSERT_EQ(result.payload.size(), payload.size());
  EXPECT_EQ(result.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllRates, WlanRateLoopback,
    ::testing::Values(core::WlanRate::k6, core::WlanRate::k9,
                      core::WlanRate::k12, core::WlanRate::k18,
                      core::WlanRate::k24, core::WlanRate::k36,
                      core::WlanRate::k48, core::WlanRate::k54));

// DRM robustness modes exercise the non-power-of-two FFT path end-to-end.
class DrmModeLoopback : public ::testing::TestWithParam<core::DrmMode> {};

TEST_P(DrmModeLoopback, NoiselessRoundTripIsLossless) {
  const OfdmParams params = core::profile_drm(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(7);
  const bitvec payload =
      rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(), 4000));
  const auto burst = tx.modulate(payload);
  const auto result = rx.demodulate(burst.samples, payload.size());
  EXPECT_EQ(result.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DrmModeLoopback,
                         ::testing::Values(core::DrmMode::kA,
                                           core::DrmMode::kB,
                                           core::DrmMode::kC,
                                           core::DrmMode::kD));

// DAB transmission modes exercise the differential path at four sizes.
class DabModeLoopback : public ::testing::TestWithParam<core::DabMode> {};

TEST_P(DabModeLoopback, NoiselessRoundTripIsLossless) {
  core::OfdmParams params = core::profile_dab(GetParam());
  params.frame.symbols_per_frame = 8;  // keep runtime modest
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(9);
  const bitvec payload =
      rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(), 4000));
  const auto burst = tx.modulate(payload);
  const auto result = rx.demodulate(burst.samples, payload.size());
  EXPECT_EQ(result.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(AllModes, DabModeLoopback,
                         ::testing::Values(core::DabMode::kI,
                                           core::DabMode::kII,
                                           core::DabMode::kIII,
                                           core::DabMode::kIV));

// A flat complex channel gain must be transparent once the receiver
// equalizes from the burst's own training section.
TEST(EqualizedLoopback, FlatChannelGainIsRemoved) {
  const OfdmParams params = core::profile_wlan_80211a(core::WlanRate::k24);
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(3);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  auto burst = tx.modulate(payload);

  const cplx gain{0.4, -0.7};
  for (cplx& v : burst.samples) v *= gain;

  rx.set_equalizer(rx.estimate_equalizer(burst.samples));
  const auto result = rx.demodulate(burst.samples, payload.size());
  EXPECT_EQ(result.payload, payload);
}

TEST(EqualizedLoopback, PhaseReferenceStandardSurvivesFlatGain) {
  core::OfdmParams params = core::profile_dab(core::DabMode::kII);
  params.frame.symbols_per_frame = 6;
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  Rng rng(4);
  const bitvec payload =
      rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(), 2000));
  auto burst = tx.modulate(payload);
  // Differential mapping needs no equalizer at all for a flat channel.
  const cplx gain{-0.3, 0.9};
  for (cplx& v : burst.samples) v *= gain;

  const auto result = rx.demodulate(burst.samples, payload.size());
  EXPECT_EQ(result.payload, payload);
}

}  // namespace
}  // namespace ofdm

namespace ofdm {
namespace {

TEST(SoftDecoding, NoiselessLoopbackStaysLossless) {
  const auto params = core::profile_wlan_80211a(core::WlanRate::k36);
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  rx.set_demap(mapping::DemapMode::kSoft);
  Rng rng(55);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);
  EXPECT_EQ(rx.demodulate(burst.samples, payload.size()).payload,
            payload);
}

TEST(SoftDecoding, PuncturedRatesAlsoRoundTrip) {
  for (core::WlanRate rate :
       {core::WlanRate::k9, core::WlanRate::k48, core::WlanRate::k54}) {
    const auto params = core::profile_wlan_80211a(rate);
    core::Transmitter tx(params);
    rx::MotherReceiver rx(params);
    rx.set_demap(mapping::DemapMode::kSoft);
    Rng rng(56);
    const bitvec payload = rng.bits(tx.recommended_payload_bits());
    const auto burst = tx.modulate(payload);
    EXPECT_EQ(rx.demodulate(burst.samples, payload.size()).payload,
              payload);
  }
}

TEST(SoftDecoding, SilentlyKeepsHardPathWhereNotApplicable) {
  // DMT has no convolutional code: enabling soft decoding must not
  // change behaviour.
  const auto params = core::profile_adsl();
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  rx.set_demap(mapping::DemapMode::kSoft);
  Rng rng(57);
  const bitvec payload =
      rng.bits(std::min<std::size_t>(tx.recommended_payload_bits(), 3000));
  const auto burst = tx.modulate(payload);
  EXPECT_EQ(rx.demodulate(burst.samples, payload.size()).payload,
            payload);
}

}  // namespace
}  // namespace ofdm
