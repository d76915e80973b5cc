// DRM robustness-mode survey: reconfigure one Mother Model instance
// through all four DRM modes (A-D) — the member of the family whose
// non-power-of-two symbol lengths exercise the Bluestein FFT path — and
// report the air-interface numbers a broadcast planner cares about.
//
//   $ ./drm_broadcast
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/spectrum.hpp"
#include "metrics/ber.hpp"
#include "metrics/mask.hpp"
#include "metrics/papr.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  std::printf("DRM (ETSI ES 201 980) robustness modes, 48 kHz master "
              "rate\n\n");
  std::printf("%-6s %-7s %-6s %-9s %-9s %-10s %-8s %-9s %s\n", "mode",
              "N_FFT", "CP", "Tu_ms", "Ts_ms", "carriers", "PAPR_dB",
              "occBW_Hz", "loopback");

  core::Transmitter tx;  // ONE instance, reconfigured per mode
  Rng rng(11);

  for (const auto mode : {core::DrmMode::kA, core::DrmMode::kB,
                          core::DrmMode::kC, core::DrmMode::kD}) {
    core::OfdmParams params = core::profile_drm(mode);
    params.frame.symbols_per_frame = 10;  // keep the demo quick
    tx.configure(params);

    const bitvec payload = rng.bits(tx.recommended_payload_bits());
    const auto burst = tx.modulate(payload);

    // Occupied bandwidth from the burst's own spectrum.
    dsp::WelchConfig cfg;
    cfg.segment = 512;
    cfg.sample_rate = params.sample_rate;
    const auto psd = dsp::welch_psd(burst.samples, cfg);
    const double obw = metrics::occupied_bandwidth_hz(psd, 0.99);

    // Loopback check through the reference receiver.
    rx::MotherReceiver rx(params);
    const auto result = rx.demodulate(burst.samples, payload.size());
    const auto ber = metrics::ber(payload, result.payload);

    const char mode_name = 'A' + static_cast<char>(mode);
    std::printf("%-6c %-7zu %-6zu %-9.2f %-9.2f %-10zu %-8.2f %-9.0f %s\n",
                mode_name, params.fft_size, params.cp_len,
                1e3 * static_cast<double>(params.fft_size) /
                    params.sample_rate,
                1e3 * params.symbol_duration_s(),
                core::make_tone_layout(params).data_bins.size(),
                metrics::papr_db(burst.samples), obw,
                ber.errors == 0 ? "clean" : "ERRORS");
  }

  std::printf(
      "\nModes trade symbol length against guard fraction: A for "
      "ground-wave\nLF/MF, D for the most hostile ionospheric NVIS "
      "channels. All four are\nthe same Mother Model under different "
      "parameters — including FFT sizes\n1152/704/448 that no power-of-two "
      "FFT can serve.\n");
  return 0;
}
