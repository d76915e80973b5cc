// Ablation — raised-cosine symbol windowing (DESIGN.md S5).
//
// The Mother Model's window_ramp parameter tapers symbol edges with a
// raised-cosine overlap. This sweep shows what the knob buys: spectral
// shoulders (and thus 802.11a mask margin) improve with ramp length
// while EVM stays untouched, because the taper never reaches into the
// FFT window (proved bit-exactly in test_modulator.cpp).
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/spectrum.hpp"
#include "metrics/ber.hpp"
#include "metrics/evm.hpp"
#include "metrics/mask.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  std::printf("=== Ablation: OFDM symbol windowing (DESIGN.md S5) "
              "===\n\n");
  std::printf("802.11a 36 Mbit/s burst; window_ramp swept. Shoulder "
              "level measured as\npeak PSD in the 8.5..9.9 MHz offset "
              "band relative to the in-band peak.\n\n");
  std::printf("%-8s %-16s %-16s %-12s %s\n", "ramp", "shoulder_dBr",
              "mask_margin_dB", "EVM_dB", "loopback");

  Rng rng(12);
  for (std::size_t ramp : {std::size_t{0}, std::size_t{1},
                           std::size_t{2}, std::size_t{4},
                           std::size_t{8}}) {
    core::OfdmParams params =
        core::profile_wlan_80211a(core::WlanRate::k36);
    params.window_ramp = ramp;
    params.frame.symbols_per_frame = 40;  // long burst: stable PSD
    core::Transmitter tx(params);

    const bitvec payload = rng.bits(tx.recommended_payload_bits());
    const auto burst = tx.modulate(payload);

    dsp::WelchConfig cfg;
    cfg.segment = 512;
    cfg.sample_rate = params.sample_rate;
    const auto psd = dsp::welch_psd(burst.samples, cfg);
    const double ref = psd.peak_in_band(-8e6, 8e6);
    const double shoulder =
        to_db(psd.peak_in_band(8.5e6, 9.9e6) / ref);
    const auto mask =
        metrics::check_mask(psd, metrics::wlan_mask(), 8.5e6, 9e6);

    // EVM against the unwindowed reference tones + loopback.
    rx::MotherReceiver rx(params);
    const auto tones =
        rx.extract_data_tones(burst.samples, burst.data_symbols);
    // Blind EVM: tones are exactly on constellation points when the
    // window leaves the FFT region untouched.
    const auto constellation =
        mapping::Constellation::make(params.scheme);
    cvec all;
    for (const auto& sym : tones) {
      all.insert(all.end(), sym.begin(), sym.end());
    }
    const auto evm = metrics::evm_blind(all, constellation);

    const auto result = rx.demodulate(burst.samples, payload.size());
    const auto ber = metrics::ber(payload, result.payload);

    std::printf("%-8zu %-16.1f %-16.1f %-12.1f %s\n", ramp, shoulder,
                mask.worst_margin_db, evm.rms_db(),
                ber.errors == 0 ? "clean" : "ERRORS");
  }

  std::printf("\nWindowing is pure spectral hygiene: shoulders drop "
              "with ramp length\nwhile constellation quality and "
              "decodability are untouched.\n");
  return 0;
}
