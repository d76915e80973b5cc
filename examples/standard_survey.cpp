// Family survey: reconfigure ONE Mother Model instance through all ten
// standards and print the family parameter table — the demonstration
// behind the paper's abstract ("a common reconfigurable Mother Model for
// ten different standardized digital OFDM transmitters").
//
//   $ ./standard_survey
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

  std::printf("The OFDM Standard Family: one Mother Model, ten "
              "parameterizations\n\n");
  std::printf("%-18s %-7s %-6s %-7s %-9s %-11s %-8s %-9s %s\n",
              "standard", "N_FFT", "CP", "tones", "df", "fs",
              "PAPR_dB", "dParams", "loopback");

  core::Transmitter tx;  // the ONE instance
  Rng rng(42);
  const core::OfdmParams reference = core::profile_wlan_80211a();

  for (core::Standard s : core::kStandardFamily) {
    core::OfdmParams params = core::profile_for(s);
    // Keep the demo below a second per standard.
    if (params.frame.symbols_per_frame > 12) {
      params.frame.symbols_per_frame = 12;
    }
    tx.configure(params);  // <-- the reconfiguration step

    const std::size_t n_bits =
        std::min<std::size_t>(tx.recommended_payload_bits(), 2000);
    const bitvec payload = rng.bits(n_bits);
    const auto burst = tx.modulate(payload);

    rx::MotherReceiver rx(params);
    const auto result = rx.demodulate(burst.samples, payload.size());
    const auto ber = metrics::ber(payload, result.payload);

    const auto layout = core::make_tone_layout(params);
    char df[24];
    if (params.subcarrier_spacing_hz() >= 1e3) {
      std::snprintf(df, sizeof df, "%.4gkHz",
                    params.subcarrier_spacing_hz() / 1e3);
    } else {
      std::snprintf(df, sizeof df, "%.4gHz",
                    params.subcarrier_spacing_hz());
    }
    char fs[24];
    if (params.sample_rate >= 1e6) {
      std::snprintf(fs, sizeof fs, "%.4gMS/s", params.sample_rate / 1e6);
    } else {
      std::snprintf(fs, sizeof fs, "%.4gkS/s", params.sample_rate / 1e3);
    }

    std::printf("%-18s %-7zu %-6zu %-7zu %-9s %-11s %-8.2f %-9zu %s\n",
                core::standard_name(s).c_str(), params.fft_size,
                params.cp_len, layout.used_tones(), df, fs,
                metrics::papr_db(burst.samples),
                core::parameter_distance(reference, params),
                ber.errors == 0 ? "clean" : "ERRORS");
  }

  std::printf("\n'dParams' counts the configuration fields that differ "
              "from the 802.11a\nbaseline (of %zu total) — the cost of "
              "deriving each standard from the\nMother Model instead of "
              "designing it from scratch.\n",
              core::parameter_count(reference));
  return 0;
}
