// Quickstart: configure the Mother Model as an IEEE 802.11a transmitter,
// modulate one frame, and verify it with the reference receiver.
//
//   $ ./quickstart
//
// This is the five-minute tour of the library's core loop:
//   profile -> Transmitter::configure -> modulate ->
//   MotherReceiver::demodulate.
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "metrics/papr.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  // 1. Pick a family member. Every standard is just a parameter set.
  const core::OfdmParams params =
      core::profile_wlan_80211a(core::WlanRate::k36);
  std::printf("Configured: %s\n", core::summarize(params).c_str());

  // 2. Instantiate the Mother Model and a matching reference receiver.
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  // 3. Modulate one frame of random payload bits.
  Rng rng(2025);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  std::printf("Payload bits:      %zu\n", burst.payload_bits);
  std::printf("Coded bits:        %zu\n", burst.coded_bits);
  std::printf("OFDM symbols:      %zu\n", burst.data_symbols);
  std::printf("Preamble samples:  %zu\n", burst.preamble_samples);
  std::printf("Burst samples:     %zu (%.1f us at %.0f MS/s)\n",
              burst.samples.size(),
              1e6 * static_cast<double>(burst.samples.size()) /
                  params.sample_rate,
              params.sample_rate / 1e6);
  std::printf("Average power:     %.3f\n", mean_power(burst.samples));
  std::printf("PAPR:              %.2f dB\n",
              metrics::papr_db(burst.samples));

  // 4. Close the loop: the receiver must recover the payload exactly.
  const auto result = rx.demodulate(burst.samples, payload.size());
  const auto ber = metrics::ber(payload, result.payload);
  std::printf("Loopback BER:      %zu / %zu bits\n", ber.errors, ber.bits);

  if (ber.errors != 0) {
    std::printf("FAILED: loopback must be lossless\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
