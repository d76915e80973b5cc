// DVB-T (ETSI EN 300 744) profiles, 2k and 8k modes.
//
// The full concatenated chain is active: energy-dispersal scrambler,
// outer RS(204,188), inner K=7 (133,171) convolutional code with rate-2/3
// puncturing, per-symbol bit interleaving, QPSK/16/64-QAM on 1705 (2k) or
// 6817 (8k) carriers at the 64/7 MHz elementary rate.
//
// Simplifications (DESIGN.md §4): the scattered-pilot raster is
// represented by boosted continual pilots on every 113th carrier, the
// outer Forney interleaver is not modelled (frame-sized bursts would only
// see its fill transient), and the TPS carriers are omitted.
#include <numeric>

#include "core/profiles.hpp"
#include "core/tone_map.hpp"

namespace ofdm::core {

OfdmParams profile_dvbt(DvbtMode mode, mapping::Scheme scheme) {
  OfdmParams p;
  p.standard = Standard::kDvbT;
  p.sample_rate = 64e6 / 7.0;
  p.nominal_rf_hz = 722e6;  // UHF channel 52

  long kmax = 0;
  switch (mode) {
    case DvbtMode::k2k:
      p.variant = "2k mode";
      p.fft_size = 2048;
      kmax = 852;  // 1705 used carriers
      break;
    case DvbtMode::k8k:
      p.variant = "8k mode";
      p.fft_size = 8192;
      kmax = 3408;  // 6817 used carriers
      break;
  }
  p.cp_len = p.fft_size / 8;  // guard interval 1/8

  p.tone_map = null_tone_map(p.fft_size);
  fill_data_range(p.tone_map, -kmax, kmax, /*skip_dc=*/false);
  std::size_t pilot_count = 0;
  for (long k = -kmax; k <= kmax; k += 113) {
    set_tone(p.tone_map, k, ToneType::kPilot);
    ++pilot_count;
  }

  p.mapping = MappingKind::kFixed;
  p.scheme = scheme;

  // Continual pilots: BPSK at 4/3 boosted power (EN 300 744 4.5.3).
  p.pilots.base_values.assign(pilot_count, cplx{1.0, 0.0});
  p.pilots.polarity_prbs = true;
  p.pilots.prbs_degree = 11;
  p.pilots.prbs_taps = (1u << 10) | (1u << 1);  // x^11 + x^2 + 1
  p.pilots.prbs_seed = 0x7FF;
  p.pilots.boost = 4.0 / 3.0;

  // Energy dispersal x^15 + x^14 + 1, init 100101010000000.
  p.scrambler.enabled = true;
  p.scrambler.degree = 15;
  p.scrambler.taps = (std::uint64_t{1} << 14) | (std::uint64_t{1} << 13);
  p.scrambler.seed = 0b000000010101001;  // delay-1 cell in bit 0

  p.fec.rs_enabled = true;
  p.fec.rs_n = 204;
  p.fec.rs_k = 188;
  p.fec.conv_enabled = true;
  p.fec.conv = coding::k7_industry_code();
  p.fec.puncture = coding::puncture_2_3();

  // Inner bit interleaver: EN 300 744 interleaves in 126-bit blocks. Our
  // per-symbol block interleaver needs a row count dividing the coded
  // bits per symbol, so use the largest divisor of 126 that fits this
  // carrier/constellation combination.
  p.interleaver.kind = InterleaverKind::kBlock;
  const std::size_t data_tones =
      2 * static_cast<std::size_t>(kmax) + 1 - pilot_count;
  const std::size_t cbps = data_tones * mapping::bits_per_symbol(scheme);
  p.interleaver.rows = std::gcd(cbps, std::size_t{126});

  p.frame.symbols_per_frame = 4;  // keep the default burst tractable
  return p;
}

}  // namespace ofdm::core
