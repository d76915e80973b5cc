// Extension bench — PAPR reduction ahead of the PA.
//
// Regenerates the CCDF-of-PAPR figure (per family member) and shows
// what clipping-and-filtering buys in the E4 setting: at a fixed PA
// back-off, the clipped signal keeps more EVM/mask margin, or
// equivalently the same quality is reached at lower back-off.
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/evm.hpp"
#include "metrics/mask.hpp"
#include "metrics/papr.hpp"
#include "rf/chain.hpp"
#include "rf/pa.hpp"
#include "rf/papr_reduction.hpp"
#include "rf/sinks.hpp"
#include "rx/mother/mother_rx.hpp"

namespace {

using namespace ofdm;

void papr_ccdf_per_standard() {
  std::printf("(1) CCDF of per-symbol PAPR (probability PAPR > x dB)\n\n");
  const rvec thresholds = {5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0};
  std::printf("%-20s", "standard");
  for (double t : thresholds) std::printf(" >%4.0fdB", t);
  std::printf("\n");

  Rng rng(21);
  for (core::Standard s : core::kStandardFamily) {
    core::OfdmParams params = core::profile_for(s);
    if (params.frame.symbols_per_frame > 24) {
      params.frame.symbols_per_frame = 24;
    }
    core::Transmitter tx(params);
    cvec samples;
    for (int frame = 0; frame < 6; ++frame) {
      const auto burst = tx.modulate(rng.bits(
          std::min<std::size_t>(tx.recommended_payload_bits(), 4000)));
      const auto body = std::span<const cplx>(burst.samples)
                            .subspan(burst.null_samples);
      samples.insert(samples.end(), body.begin(), body.end());
    }
    const auto ccdf =
        metrics::papr_ccdf(samples, params.symbol_len(), thresholds);
    std::printf("%-20s", core::standard_name(s).c_str());
    for (double p : ccdf.probability) std::printf(" %7.3f", p);
    std::printf("\n");
  }
  std::printf("\n");
}

void clip_filter_gain() {
  std::printf("(2) clipping-and-filtering ahead of the PA "
              "(802.11a, 36 Mbit/s, Rapp s=2)\n\n");
  const auto params = core::profile_wlan_80211a(core::WlanRate::k36);
  core::Transmitter tx(params);
  Rng rng(22);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rx::MotherReceiver ref_rx(params);
  const auto clean =
      ref_rx.extract_data_tones(burst.samples, burst.data_symbols);

  std::printf("%-10s %-12s %-10s %-10s %-14s\n", "CAF", "backoff_dB",
              "PAPR_dB", "EVM_dB", "mask_margin_dB");
  for (bool caf : {false, true}) {
    for (double backoff : {8.0, 6.0, 4.0}) {
      rf::Chain chain;
      if (caf) {
        // 802.11a occupies +-8.3 MHz of the 20 MHz band: cutoff 0.42.
        chain.add<rf::ClipAndFilter>(5.0, 0.42, 2);
      }
      auto& papr_meter = chain.add<rf::PowerMeter>();
      chain.add<rf::Gain>(-backoff);
      chain.add<rf::RappPa>(2.0, 1.0);
      chain.add<rf::Gain>(backoff);
      dsp::WelchConfig cfg;
      cfg.segment = 256;
      cfg.sample_rate = 20e6;
      auto& analyzer = chain.add<rf::SpectrumAnalyzer>(cfg);

      cvec rx_samples;
      for (int rep = 0; rep < 6; ++rep) {
        cvec out = chain.process(burst.samples);
        if (rep == 0) rx_samples = std::move(out);
      }

      rx::MotherReceiver rx(params);
      rx.set_equalizer(rx.estimate_equalizer(rx_samples));
      const auto tones =
          rx.extract_data_tones(rx_samples, burst.data_symbols);
      cvec all_rx;
      cvec all_ref;
      for (std::size_t sym = 0; sym < tones.size(); ++sym) {
        all_rx.insert(all_rx.end(), tones[sym].begin(),
                      tones[sym].end());
        all_ref.insert(all_ref.end(), clean[sym].begin(),
                       clean[sym].end());
      }
      const auto evm = metrics::evm(all_rx, all_ref);
      const auto mask = metrics::check_mask(
          analyzer.psd(), metrics::wlan_mask(), 8.5e6, 9e6);

      std::printf("%-10s %-12.0f %-10.2f %-10.1f %-14.1f\n",
                  caf ? "on" : "off", backoff, papr_meter.papr_db(),
                  evm.rms_db(), mask.worst_margin_db);
      papr_meter.reset();
    }
  }
  std::printf("\nClipping trades a fixed EVM cost for PAPR; at "
              "aggressive back-off the\nclipped chain keeps more mask "
              "margin because the PA sees fewer peaks.\n");
}

}  // namespace

int main() {
  std::printf("=== Extension: PAPR and its reduction (feeds experiment "
              "E4) ===\n\n");
  papr_ccdf_per_standard();
  clip_filter_gain();
  return 0;
}
