// DAB under mobile reception: the differential member of the family
// through a time-varying Rayleigh channel.
//
//   $ ./dab_mobile
//
// DAB chose pi/4-DQPSK precisely because a moving receiver cannot track
// a coherent channel reference; differential demodulation only needs
// the channel to hold still for one symbol. This example sweeps vehicle
// speed (Doppler) and shows the graceful degradation — plus the cliff
// once the channel decorrelates within a symbol.
#include <cstdio>

#include <cmath>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "rf/channel.hpp"
#include "rf/channels/watterson.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  core::OfdmParams params = core::profile_dab(core::DabMode::kII);
  params.frame.symbols_per_frame = 24;
  core::Transmitter tx(params);

  const double fc = params.nominal_rf_hz;  // VHF band III
  const double fs = params.sample_rate;
  std::printf("PHY:     %s\n", core::summarize(params).c_str());
  std::printf("Carrier: %.2f MHz (VHF band III)\n\n", fc / 1e6);

  std::printf("%-12s %-12s %-14s %-12s %s\n", "speed_km/h",
              "doppler_Hz", "Ts_x_doppler", "BER", "audio verdict");

  Rng rng(99);
  for (double kmh : {0.0, 30.0, 120.0, 300.0, 900.0, 2500.0}) {
    const double doppler = fc * (kmh / 3.6) / 3e8;
    metrics::BerCounter counter;
    for (int frame = 0; frame < 4; ++frame) {
      const bitvec payload = rng.bits(tx.recommended_payload_bits());
      const auto burst = tx.modulate(payload);

      cvec rx_samples;
      if (doppler > 0.0) {
        rf::channels::WattersonChannel ch(
            {{0, 0.8}, {40, 0.2}}, rf::channels::DopplerSpectrum::kJakes,
            doppler, fs,
            static_cast<std::uint64_t>(kmh) * 31 +
                static_cast<std::uint64_t>(frame),
            16);
        rx_samples = ch.process(burst.samples);
      } else {
        rx_samples.assign(burst.samples.begin(), burst.samples.end());
      }
      // Mild receiver noise on top.
      rf::AwgnChannel noise(rf::snr_to_noise_power(1.0, 30.0),
                            static_cast<std::uint64_t>(frame) * 7 + 1);
      rx_samples = noise.process(rx_samples);

      rx::MotherReceiver rx(params);
      const auto result = rx.demodulate(rx_samples, payload.size());
      counter.add(payload, result.payload);
    }
    const auto r = counter.result();
    const double ts_fd = params.symbol_duration_s() * doppler;
    const char* verdict = r.rate() < 1e-4   ? "clean"
                          : r.rate() < 1e-2 ? "degraded"
                                            : "muted";
    std::printf("%-12.0f %-12.1f %-14.4f %-12.2e %s\n", kmh, doppler,
                ts_fd, r.rate(), verdict);
  }

  std::printf(
      "\nDifferential DQPSK needs no channel estimate: reception holds "
      "as long\nas Ts x Doppler << 1 (the channel is static across "
      "adjacent symbols).\nThe highway speeds DAB was designed for sit "
      "comfortably on the clean\nside; the cliff appears only at "
      "physically implausible speeds.\n");
  return 0;
}
