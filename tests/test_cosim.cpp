// Integration tests for the paper's headline use case: the Mother Model
// as a signal source inside the RF system simulator, with the digital
// receiver verifying the end-to-end analog/digital chain.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "metrics/evm.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/frontend.hpp"
#include "rf/pa.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm {
namespace {

// Locate `needle`'s start inside `haystack` by complex cross-correlation.
std::size_t find_delay(std::span<const cplx> haystack,
                       std::span<const cplx> needle,
                       std::size_t search_limit) {
  std::size_t best = 0;
  double best_mag = -1.0;
  const std::size_t probe = std::min<std::size_t>(needle.size(), 512);
  for (std::size_t d = 0; d + probe <= haystack.size() && d < search_limit;
       ++d) {
    cplx corr{0.0, 0.0};
    for (std::size_t i = 0; i < probe; ++i) {
      corr += haystack[d + i] * std::conj(needle[i]);
    }
    if (std::abs(corr) > best_mag) {
      best_mag = std::abs(corr);
      best = d;
    }
  }
  return best;
}

TEST(Cosim, BasebandImpairedChainStillDecodes) {
  // Mild PA compression + 30 dB SNR: the coded 802.11a link must be
  // error-free once equalized from its own preamble.
  const auto params = core::profile_wlan_80211a(core::WlanRate::k24);
  core::Transmitter tx(params);
  Rng rng(1);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rf::Chain chain;
  chain.add<rf::Gain>(-8.0);  // 8 dB input back-off
  chain.add<rf::RappPa>(2.0, 1.0);
  const double sig_power = from_db(-8.0);  // post-backoff signal power
  chain.add<rf::AwgnChannel>(rf::snr_to_noise_power(sig_power, 30.0), 42);
  const cvec rx_samples = chain.process(burst.samples);

  rx::MotherReceiver rx(params);
  rx.set_equalizer(rx.estimate_equalizer(rx_samples));
  const auto result = rx.demodulate(rx_samples, payload.size());
  const auto b = metrics::ber(payload, result.payload);
  EXPECT_EQ(b.errors, 0u) << "BER " << b.rate();
}

TEST(Cosim, MultipathWithinCpIsEqualizedAway) {
  const auto params = core::profile_wlan_80211a(core::WlanRate::k12);
  core::Transmitter tx(params);
  Rng rng(2);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  // Three-tap channel, delay spread 4 samples << CP 16. Dominant first
  // tap keeps the LTF-based timing unambiguous.
  rf::MultipathChannel ch(cvec{cplx{1.0, 0.1}, cplx{0.0, 0.0},
                               cplx{0.25, -0.15}, cplx{0.1, 0.05}});
  const cvec rx_samples = ch.process(burst.samples);

  rx::MotherReceiver rx(params);
  rx.set_equalizer(rx.estimate_equalizer(rx_samples));
  const auto result = rx.demodulate(rx_samples, payload.size());
  EXPECT_EQ(metrics::ber(payload, result.payload).errors, 0u);
}

TEST(Cosim, EvmDegradesMonotonicallyWithPaDrive) {
  // The RF designer's sweep: harder PA drive -> worse constellation.
  const auto params = core::profile_wlan_80211a(core::WlanRate::k36);
  core::Transmitter tx(params);
  Rng rng(3);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rx::MotherReceiver rx(params);
  const auto clean_tones =
      rx.extract_data_tones(burst.samples, burst.data_symbols);

  rvec evms;
  for (double backoff_db : {12.0, 6.0, 2.0}) {
    rf::Chain chain;
    chain.add<rf::Gain>(-backoff_db);
    chain.add<rf::RappPa>(2.0, 1.0);
    chain.add<rf::Gain>(backoff_db);  // renormalize for the demod
    const cvec rx_samples = chain.process(burst.samples);

    rx::MotherReceiver rx2(params);
    rx2.set_equalizer(rx2.estimate_equalizer(rx_samples));
    const auto tones =
        rx2.extract_data_tones(rx_samples, burst.data_symbols);

    cvec all_rx;
    cvec all_ref;
    for (std::size_t s = 0; s < tones.size(); ++s) {
      all_rx.insert(all_rx.end(), tones[s].begin(), tones[s].end());
      all_ref.insert(all_ref.end(), clean_tones[s].begin(),
                     clean_tones[s].end());
    }
    evms.push_back(metrics::evm(all_rx, all_ref).rms);
  }
  EXPECT_LT(evms[0], evms[1]);
  EXPECT_LT(evms[1], evms[2]);
  EXPECT_LT(evms[0], 0.01);  // 12 dB back-off: near-clean
  EXPECT_GT(evms[2], 0.02);  // 2 dB back-off: visible compression
}

TEST(Cosim, FullPassbandChainRoundTrip) {
  // The complete analog path: DAC (4x oversample) -> IQ modulator to a
  // 20 MHz carrier -> IQ demodulator -> decimator -> digital receiver.
  const auto params = core::profile_wlan_80211a(core::WlanRate::k12);
  core::Transmitter tx(params);
  Rng rng(4);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  const double fs_bb = params.sample_rate;
  const std::size_t os = 4;
  const double fs_rf = fs_bb * static_cast<double>(os);
  const double fc = 20e6;

  rf::Chain chain;
  chain.add<rf::Dac>(12, os);
  chain.add<rf::IqModulator>(rf::Oscillator(fc, fs_rf));
  chain.add<rf::IqDemodulator>(rf::Oscillator(fc, fs_rf), 0.14, 129);
  chain.add<rf::DecimatorBlock>(os);

  // Pad so the filter pipelines flush the tail of the burst through.
  cvec padded = burst.samples;
  padded.insert(padded.end(), 256, cplx{0.0, 0.0});
  const cvec rx_samples = chain.process(padded);

  // Align via cross-correlation against the clean burst, then let the
  // LTF equalizer absorb the residual fractional delay and ripple.
  const std::size_t d =
      find_delay(rx_samples, burst.samples, /*search_limit=*/200);
  ASSERT_LT(d + burst.samples.size(), rx_samples.size() + 64);
  const auto aligned = std::span<const cplx>(rx_samples)
                           .subspan(d, rx_samples.size() - d);

  rx::MotherReceiver rx(params);
  rx.set_equalizer(rx.estimate_equalizer(aligned));
  const auto result = rx.demodulate(aligned, payload.size());
  EXPECT_EQ(metrics::ber(payload, result.payload).errors, 0u);
}

TEST(Cosim, SevereClippingBreaksTheLink) {
  // Sanity check in the other direction: the co-simulation must be able
  // to *show* a failure, or it is useless to the RF designer.
  const auto params = core::profile_wlan_80211a(core::WlanRate::k54);
  core::Transmitter tx(params);
  Rng rng(5);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rf::Chain chain;
  chain.add<rf::Gain>(10.0);  // drive hard into the limiter
  chain.add<rf::SoftClipPa>(0.5);
  const cvec rx_samples = chain.process(burst.samples);

  rx::MotherReceiver rx(params);
  rx.set_equalizer(rx.estimate_equalizer(rx_samples));
  const auto result = rx.demodulate(rx_samples, payload.size());
  EXPECT_GT(metrics::ber(payload, result.payload).rate(), 0.01);
}

}  // namespace
}  // namespace ofdm
