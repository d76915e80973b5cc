// Profile tests: each family member's parameter set carries the
// geometry its standard specifies (the numbers in DESIGN.md §4).
#include <gtest/gtest.h>

#include "core/params.hpp"
#include "core/profiles.hpp"

namespace ofdm::core {
namespace {

class EveryProfile : public ::testing::TestWithParam<Standard> {};

TEST_P(EveryProfile, Validates) {
  EXPECT_NO_THROW(validate(profile_for(GetParam())));
}

TEST_P(EveryProfile, StandardTagMatches) {
  EXPECT_EQ(profile_for(GetParam()).standard, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Family, EveryProfile,
                         ::testing::ValuesIn(kStandardFamily));

TEST(Profiles, Wlan80211aGeometry) {
  const OfdmParams p = profile_wlan_80211a();
  EXPECT_EQ(p.fft_size, 64u);
  EXPECT_EQ(p.cp_len, 16u);
  EXPECT_DOUBLE_EQ(p.sample_rate, 20e6);
  EXPECT_NEAR(p.subcarrier_spacing_hz(), 312.5e3, 1e-6);
  EXPECT_NEAR(p.symbol_duration_s(), 4e-6, 1e-12);  // 4 us OFDM symbol
  const ToneLayout layout = make_tone_layout(p);
  EXPECT_EQ(layout.data_bins.size(), 48u);
  EXPECT_EQ(layout.pilot_bins.size(), 4u);
}

TEST(Profiles, WlanRateTable) {
  // 17.3.2.2: rate -> modulation & coding.
  EXPECT_EQ(wlan_rate_scheme(WlanRate::k6), mapping::Scheme::kBpsk);
  EXPECT_EQ(wlan_rate_scheme(WlanRate::k24), mapping::Scheme::kQam16);
  EXPECT_EQ(wlan_rate_scheme(WlanRate::k54), mapping::Scheme::kQam64);
  EXPECT_EQ(wlan_rate_puncture(WlanRate::k6).kept_per_period(), 2u);
  EXPECT_EQ(wlan_rate_puncture(WlanRate::k48).kept_per_period(), 3u);
  EXPECT_EQ(wlan_rate_puncture(WlanRate::k54).kept_per_period(), 4u);
}

TEST(Profiles, GygIsAAtDifferentCarrier) {
  const OfdmParams a = profile_wlan_80211a();
  const OfdmParams g = profile_wlan_80211g();
  EXPECT_EQ(a.fft_size, g.fft_size);
  EXPECT_EQ(a.cp_len, g.cp_len);
  EXPECT_NE(a.nominal_rf_hz, g.nominal_rf_hz);
  EXPECT_LT(g.nominal_rf_hz, 3e9);   // 2.4 GHz band
  EXPECT_GT(a.nominal_rf_hz, 5e9);   // 5 GHz band
}

TEST(Profiles, AdslGeometry) {
  const OfdmParams p = profile_adsl();
  EXPECT_EQ(p.fft_size, 512u);
  EXPECT_TRUE(p.hermitian);
  EXPECT_NEAR(p.subcarrier_spacing_hz(), 4312.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.sample_rate, 2.208e6);
  EXPECT_EQ(p.mapping, MappingKind::kBitTable);
  const ToneLayout layout = make_tone_layout(p);
  EXPECT_EQ(layout.data_bins.size(), 222u);  // tones 33..255 minus pilot
  EXPECT_EQ(layout.pilot_bins.size(), 1u);
  EXPECT_EQ(layout.pilot_bins[0], 64u);
}

TEST(Profiles, AdslPlusPlusDoublesSpectrum) {
  const OfdmParams a = profile_adsl();
  const OfdmParams pp = profile_adsl_plus_plus();
  EXPECT_EQ(pp.fft_size, 2 * a.fft_size);
  EXPECT_DOUBLE_EQ(pp.sample_rate, 2 * a.sample_rate);
  EXPECT_NEAR(pp.subcarrier_spacing_hz(), a.subcarrier_spacing_hz(), 1e-9);
}

TEST(Profiles, VdslKeepsDmtSpacing) {
  const OfdmParams p = profile_vdsl();
  EXPECT_EQ(p.fft_size, 8192u);
  EXPECT_NEAR(p.subcarrier_spacing_hz(), 4312.5, 1e-9);
  EXPECT_TRUE(p.hermitian);
}

TEST(Profiles, DrmModesUseNonPow2FftSizes) {
  EXPECT_EQ(profile_drm(DrmMode::kA).fft_size, 1152u);
  EXPECT_EQ(profile_drm(DrmMode::kB).fft_size, 1024u);
  EXPECT_EQ(profile_drm(DrmMode::kC).fft_size, 704u);
  EXPECT_EQ(profile_drm(DrmMode::kD).fft_size, 448u);
  // Useful symbol durations at the 48 kHz master rate.
  EXPECT_NEAR(profile_drm(DrmMode::kA).fft_size /
                  profile_drm(DrmMode::kA).sample_rate,
              24e-3, 1e-9);
  EXPECT_NEAR(profile_drm(DrmMode::kD).fft_size /
                  profile_drm(DrmMode::kD).sample_rate,
              9.333e-3, 1e-5);
}

TEST(Profiles, DabModeGeometry) {
  // ETSI EN 300 401 transmission modes at 2.048 MHz: symbols per frame
  // L, symbol length Ts, null length Tnull, guard (CP) and carriers K,
  // all in samples.
  struct Mode {
    DabMode mode;
    std::size_t symbols, ts, tnull, cp, k, fft;
  };
  const Mode modes[] = {
      {DabMode::kI, 76, 2552, 2656, 504, 1536, 2048},
      {DabMode::kII, 76, 638, 664, 126, 384, 512},
      {DabMode::kIII, 153, 319, 345, 63, 192, 256},
      {DabMode::kIV, 76, 1276, 1328, 252, 768, 1024},
  };
  for (const Mode& m : modes) {
    const OfdmParams p = profile_dab(m.mode);
    SCOPED_TRACE(p.variant);
    EXPECT_DOUBLE_EQ(p.sample_rate, 2.048e6);
    EXPECT_EQ(p.frame.symbols_per_frame, m.symbols);
    EXPECT_EQ(p.symbol_len(), m.ts);
    EXPECT_EQ(p.frame.null_samples, m.tnull);
    EXPECT_EQ(p.cp_len, m.cp);
    EXPECT_EQ(make_tone_layout(p).data_bins.size(), m.k);
    EXPECT_EQ(p.fft_size, m.fft);
    // Carrier spacing 1/Tu: 1, 4, 8 and 2 kHz.
    EXPECT_NEAR(p.subcarrier_spacing_hz(), 2.048e6 / m.fft, 1e-9);
    EXPECT_EQ(p.mapping, MappingKind::kDifferential);
    EXPECT_EQ(p.diff_kind, mapping::DiffKind::kPi4Dqpsk);
  }
}

TEST(Profiles, DvbtGeometry) {
  const OfdmParams p2k = profile_dvbt(DvbtMode::k2k);
  EXPECT_EQ(p2k.fft_size, 2048u);
  EXPECT_NEAR(p2k.sample_rate, 64e6 / 7.0, 1e-3);
  const ToneLayout l2k = make_tone_layout(p2k);
  EXPECT_EQ(l2k.data_bins.size() + l2k.pilot_bins.size(), 1705u);
  EXPECT_TRUE(p2k.fec.rs_enabled);
  EXPECT_EQ(p2k.fec.rs_n, 204u);
  EXPECT_TRUE(p2k.fec.conv_enabled);

  const OfdmParams p8k = profile_dvbt(DvbtMode::k8k);
  EXPECT_EQ(p8k.fft_size, 8192u);
  const ToneLayout l8k = make_tone_layout(p8k);
  EXPECT_EQ(l8k.data_bins.size() + l8k.pilot_bins.size(), 6817u);
}

TEST(Profiles, Wman80216aGeometry) {
  const OfdmParams p = profile_wman_80216a();
  EXPECT_EQ(p.fft_size, 256u);
  const ToneLayout layout = make_tone_layout(p);
  EXPECT_EQ(layout.data_bins.size(), 192u);
  EXPECT_EQ(layout.pilot_bins.size(), 8u);
  EXPECT_DOUBLE_EQ(p.sample_rate, 8e6);  // 7 MHz * 8/7 sampling factor
  EXPECT_TRUE(p.fec.rs_enabled);
}

TEST(Profiles, HomeplugGeometry) {
  const OfdmParams p = profile_homeplug();
  EXPECT_EQ(p.fft_size, 256u);
  EXPECT_TRUE(p.hermitian);
  EXPECT_EQ(make_tone_layout(p).data_bins.size(), 84u);
  EXPECT_EQ(p.mapping, MappingKind::kDifferential);
  EXPECT_GT(p.cp_len, 100u);  // long powerline guard interval
}

TEST(Profiles, FamilyHasTenDistinctMembers) {
  // The Abstract's claim: one Mother Model, ten standards.
  EXPECT_EQ(kStandardFamily.size(), 10u);
  for (Standard a : kStandardFamily) {
    for (Standard b : kStandardFamily) {
      if (a == b) continue;
      EXPECT_GT(parameter_distance(profile_for(a), profile_for(b)), 0u)
          << standard_name(a) << " vs " << standard_name(b);
    }
  }
}

}  // namespace
}  // namespace ofdm::core
