// ADSL DMT over a twisted-pair-like loop: measure per-tone SNR through
// the channel, run the bit-loading algorithm, reconfigure the Mother
// Model with the resulting bit table, and verify the link end-to-end.
//
//   $ ./adsl_dmt
//
// This is the wireline face of the Mother Model: the same transmitter
// object that does 802.11a runs a Hermitian (real-output) DMT waveform
// with a per-tone constellation chosen from channel measurements.
#include <cstdio>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "mapping/bitloading.hpp"
#include "metrics/ber.hpp"
#include "rf/channel.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  core::OfdmParams params = core::profile_adsl();
  params.frame.symbols_per_frame = 16;
  std::printf("Loop:   crude twisted pair (lowpass + 20 dB flat loss)\n");
  std::printf("PHY:    %s\n\n", core::summarize(params).c_str());

  // --- 1. Channel measurement ------------------------------------------
  // Sound the loop with the flat default configuration and estimate the
  // per-tone channel gain |H(f_k)| from the channel taps directly (the
  // DMT equivalent of the modem's MEDLEY phase).
  rf::MultipathChannel loop(rf::twisted_pair_taps(0.18, 20.0, 33));
  const core::ToneLayout layout = core::make_tone_layout(params);

  dsp::Fft fft(params.fft_size);
  cvec taps_padded(params.fft_size, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < loop.taps().size(); ++i) {
    taps_padded[i] = loop.taps()[i];
  }
  const cvec h = fft.forward(taps_padded);

  const double noise_floor_db = -52.0;  // receiver noise relative to TX
  rvec snr_db;
  snr_db.reserve(layout.data_bins.size());
  for (std::size_t bin : layout.data_bins) {
    snr_db.push_back(to_db(std::norm(h[bin])) - noise_floor_db);
  }

  // --- 2. Bit loading ----------------------------------------------------
  const double gamma_db = 9.8 + 3.0;  // SNR gap + margin, no coding gain
  const mapping::BitTable table =
      mapping::compute_bit_allocation(snr_db, gamma_db, 15, 2);
  params.bit_table = table;

  std::size_t used_tones = 0;
  for (std::uint8_t b : table) used_tones += b > 0;
  const std::size_t bits_per_symbol = mapping::table_bits(table);
  const double rate_mbps = static_cast<double>(bits_per_symbol) /
                           params.symbol_duration_s() / 1e6;
  std::printf("Bit loading: %zu of %zu tones active, %zu bits/symbol "
              "-> %.2f Mbit/s\n",
              used_tones, table.size(), bits_per_symbol, rate_mbps);

  // Histogram of per-tone loads.
  std::size_t histogram[16] = {};
  for (std::uint8_t b : table) ++histogram[b];
  std::printf("load histogram (bits: count): ");
  for (int b = 2; b <= 15; ++b) {
    if (histogram[b]) std::printf("%d:%zu ", b, histogram[b]);
  }
  std::printf("\n\n");

  // --- 3. Transmit through the loop and verify ---------------------------
  core::Transmitter tx(params);
  Rng rng(33);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rf::MultipathChannel loop2(rf::twisted_pair_taps(0.18, 20.0, 33));
  cvec rx_samples = loop2.process(burst.samples);

  // One-tap frequency-domain equalizer from the known channel response
  // (a trained modem would estimate this from the sounding phase).
  cvec eq(params.fft_size, cplx{1.0, 0.0});
  for (std::size_t bin = 0; bin < params.fft_size; ++bin) {
    if (std::abs(h[bin]) > 1e-9) eq[bin] = 1.0 / h[bin];
  }
  rx::MotherReceiver rx(params);
  rx.set_equalizer(eq);

  const auto result = rx.demodulate(rx_samples, payload.size());
  const auto ber = metrics::ber(payload, result.payload);
  std::printf("payload: %zu bits over %zu DMT symbols\n", payload.size(),
              burst.data_symbols);
  std::printf("loopback through loop + FEQ: %zu bit errors (BER %.2e)\n",
              ber.errors, ber.rate());

  if (ber.errors != 0) {
    std::printf("FAILED: noiseless equalized DMT link must be clean\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
