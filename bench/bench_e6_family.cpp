// Experiment E6 — the Abstract's headline:
//   "A common reconfigurable Mother Model for ten different
//    standardized digital OFDM transmitters has been developed."
//
// The family coverage matrix: every standard must (a) produce a valid
// parameter set, (b) instantiate on the shared Mother Model, (c)
// generate a burst with the right geometry, and (d) demodulate
// losslessly through the reference receiver. One failed cell falsifies
// the claim.
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  std::printf("=== E6: ten-standard family coverage matrix (paper "
              "abstract) ===\n\n");
  std::printf("%-20s %-10s %-12s %-10s %-10s %-10s %s\n", "standard",
              "validate", "instantiate", "generate", "geometry",
              "loopback", "verdict");

  core::Transmitter tx;
  Rng rng(66);
  std::size_t passed = 0;

  for (core::Standard s : core::kStandardFamily) {
    bool ok_validate = false;
    bool ok_instantiate = false;
    bool ok_generate = false;
    bool ok_geometry = false;
    bool ok_loopback = false;

    try {
      core::OfdmParams params = core::profile_for(s);
      if (params.frame.symbols_per_frame > 12) {
        params.frame.symbols_per_frame = 12;
      }
      core::validate(params);
      ok_validate = true;

      tx.configure(params);
      ok_instantiate = true;

      const std::size_t n_bits =
          std::min<std::size_t>(tx.recommended_payload_bits(), 3000);
      const bitvec payload = rng.bits(n_bits);
      const auto burst = tx.modulate(payload);
      ok_generate = !burst.samples.empty();

      const std::size_t expected =
          params.frame.null_samples + burst.preamble_samples +
          burst.data_symbols * params.symbol_len() + params.window_ramp;
      const auto body = std::span<const cplx>(burst.samples)
                            .subspan(burst.null_samples);
      ok_geometry = burst.samples.size() == expected &&
                    std::abs(mean_power(body) - 1.0) < 0.25;

      rx::MotherReceiver rx(params);
      const auto result = rx.demodulate(burst.samples, payload.size());
      ok_loopback =
          metrics::ber(payload, result.payload).errors == 0 &&
          result.rs_blocks_failed == 0;
    } catch (const std::exception& e) {
      std::printf("  exception for %s: %s\n",
                  core::standard_name(s).c_str(), e.what());
    }

    const bool all = ok_validate && ok_instantiate && ok_generate &&
                     ok_geometry && ok_loopback;
    passed += all;
    auto mark = [](bool b) { return b ? "yes" : "NO"; };
    std::printf("%-20s %-10s %-12s %-10s %-10s %-10s %s\n",
                core::standard_name(s).c_str(), mark(ok_validate),
                mark(ok_instantiate), mark(ok_generate),
                mark(ok_geometry), mark(ok_loopback),
                all ? "PASS" : "FAIL");
  }

  std::printf("\nFamily coverage: %zu / 10 standards fully supported by "
              "the single\nMother Model.\n",
              passed);
  return passed == 10 ? 0 : 1;
}
