#include "core/params.hpp"

#include <bit>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"

namespace ofdm::core {

ToneLayout make_tone_layout(const OfdmParams& p) {
  ToneLayout layout;
  const std::size_t n = p.fft_size;
  auto visit = [&](std::size_t bin) {
    switch (p.tone_map[bin]) {
      case ToneType::kData: layout.data_bins.push_back(bin); break;
      case ToneType::kPilot: layout.pilot_bins.push_back(bin); break;
      case ToneType::kNull: break;
    }
  };
  if (p.hermitian) {
    // Only the positive-frequency half carries independent content.
    for (std::size_t bin = 1; bin < n / 2; ++bin) visit(bin);
  } else {
    // Logical order: -N/2 ... -1, 0, 1 ... N/2-1 maps to bins
    // N/2 ... N-1, 0, 1 ... N/2-1.
    for (std::size_t k = 0; k < n; ++k) {
      visit((k + n / 2) % n);
    }
  }
  return layout;
}

void validate(const OfdmParams& p) {
  OFDM_REQUIRE(p.fft_size >= 2, "OfdmParams: fft_size must be >= 2");
  OFDM_REQUIRE(p.sample_rate > 0.0, "OfdmParams: sample_rate must be > 0");
  OFDM_REQUIRE(p.cp_len < 4 * p.fft_size,
               "OfdmParams: cyclic prefix implausibly long");
  OFDM_REQUIRE(p.tone_map.size() == p.fft_size,
               "OfdmParams: tone_map must have one entry per FFT bin");
  OFDM_REQUIRE(p.window_ramp <= p.cp_len,
               "OfdmParams: window ramp cannot exceed the cyclic prefix");
  OFDM_REQUIRE(p.frame.symbols_per_frame >= 1,
               "OfdmParams: need at least one symbol per frame");

  if (p.hermitian) {
    OFDM_REQUIRE(p.tone_map[0] == ToneType::kNull,
                 "OfdmParams: hermitian output requires a null DC bin");
    for (std::size_t bin = p.fft_size / 2; bin < p.fft_size; ++bin) {
      OFDM_REQUIRE(p.tone_map[bin] == ToneType::kNull,
                   "OfdmParams: hermitian output requires the negative-"
                   "frequency half of tone_map to be null (it is derived)");
    }
  }

  const ToneLayout layout = make_tone_layout(p);
  OFDM_REQUIRE(!layout.data_bins.empty(),
               "OfdmParams: configuration has no data tones");
  OFDM_REQUIRE(p.pilots.base_values.size() == layout.pilot_bins.size(),
               "OfdmParams: pilots.base_values must match the number of "
               "pilot tones in tone_map");
  if (p.pilots.polarity_prbs) {
    OFDM_REQUIRE(p.pilots.prbs_taps != 0 && p.pilots.prbs_seed != 0,
                 "OfdmParams: pilot polarity PRBS needs taps and seed");
  }

  switch (p.mapping) {
    case MappingKind::kFixed:
      break;
    case MappingKind::kDifferential:
      OFDM_REQUIRE(p.frame.preamble == PreambleKind::kPhaseReference,
                   "OfdmParams: differential mapping needs a phase "
                   "reference symbol to seed the mapper");
      break;
    case MappingKind::kBitTable:
      OFDM_REQUIRE(p.bit_table.size() == layout.data_bins.size(),
                   "OfdmParams: bit_table must have one entry per data "
                   "tone");
      OFDM_REQUIRE(mapping::table_bits(p.bit_table) > 0,
                   "OfdmParams: bit_table carries no bits");
      break;
  }

  if (p.scrambler.enabled) {
    OFDM_REQUIRE(p.scrambler.taps != 0 && p.scrambler.seed != 0,
                 "OfdmParams: enabled scrambler needs taps and seed");
  }
  if (p.fec.rs_enabled) {
    OFDM_REQUIRE(p.fec.rs_k < p.fec.rs_n && p.fec.rs_n <= 255,
                 "OfdmParams: Reed-Solomon needs k < n <= 255");
  }
  if (p.fec.conv_enabled) {
    coding::validate(p.fec.conv);
    OFDM_REQUIRE(!p.fec.puncture.keep.empty() &&
                     p.fec.puncture.keep.size() ==
                         p.fec.conv.generators.size(),
                 "OfdmParams: puncture pattern must match generator count");
  }
  if (p.interleaver.kind == InterleaverKind::kWlan) {
    OFDM_REQUIRE(p.mapping == MappingKind::kFixed,
                 "OfdmParams: the WLAN interleaver assumes fixed mapping");
    OFDM_REQUIRE(coded_bits_per_symbol(p) % 16 == 0,
                 "OfdmParams: WLAN interleaver needs N_CBPS divisible by "
                 "16");
  }
  if (p.interleaver.kind == InterleaverKind::kBlock) {
    OFDM_REQUIRE(p.interleaver.rows >= 1 &&
                     coded_bits_per_symbol(p) % p.interleaver.rows == 0,
                 "OfdmParams: block interleaver rows must divide the "
                 "coded bits per symbol");
  }
}

std::size_t coded_bits_per_symbol(const OfdmParams& p) {
  const ToneLayout layout = make_tone_layout(p);
  switch (p.mapping) {
    case MappingKind::kFixed:
      return layout.data_bins.size() * mapping::bits_per_symbol(p.scheme);
    case MappingKind::kDifferential:
      return layout.data_bins.size() *
             mapping::diff_bits_per_symbol(p.diff_kind);
    case MappingKind::kBitTable:
      return mapping::table_bits(p.bit_table);
  }
  return 0;
}

namespace {

// Flatten a parameter set to named scalar fields. Structured sub-objects
// that profiles generate from a handful of knobs (tone map, bit table,
// pilot values) are folded to one digest field each, so "parameter
// distance" counts design decisions, not FFT bins.
std::vector<std::pair<std::string, std::string>> fields(const OfdmParams& p) {
  std::vector<std::pair<std::string, std::string>> f;
  auto add = [&f](const std::string& name, const auto& v) {
    std::ostringstream os;
    os << v;
    f.emplace_back(name, os.str());
  };
  auto digest = [](const auto& container) {
    std::size_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t x) {
      for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xFFu;
        h *= 0x100000001b3ull;
      }
    };
    for (const auto& v : container) {
      using T = std::decay_t<decltype(v)>;
      if constexpr (std::is_enum_v<T>) {
        mix(static_cast<std::uint64_t>(v));
      } else if constexpr (std::is_integral_v<T>) {
        mix(static_cast<std::uint64_t>(v));
      } else if constexpr (std::is_same_v<T, cplx>) {
        mix(std::bit_cast<std::uint64_t>(v.real()));
        mix(std::bit_cast<std::uint64_t>(v.imag()));
      }
    }
    return h;
  };

  add("standard", static_cast<int>(p.standard));
  add("sample_rate", p.sample_rate);
  add("fft_size", p.fft_size);
  add("cp_len", p.cp_len);
  add("window_ramp", p.window_ramp);
  add("hermitian", p.hermitian);
  add("tone_map", digest(p.tone_map));
  add("mapping", static_cast<int>(p.mapping));
  add("scheme", static_cast<int>(p.scheme));
  add("diff_kind", static_cast<int>(p.diff_kind));
  add("bit_table", digest(p.bit_table));
  add("scrambler.enabled", p.scrambler.enabled);
  add("scrambler.degree", p.scrambler.degree);
  add("scrambler.taps", p.scrambler.taps);
  add("scrambler.seed", p.scrambler.seed);
  add("fec.rs_enabled", p.fec.rs_enabled);
  add("fec.rs_n", p.fec.rs_n);
  add("fec.rs_k", p.fec.rs_k);
  add("fec.conv_enabled", p.fec.conv_enabled);
  add("fec.conv.K", p.fec.conv.constraint_length);
  add("fec.conv.gen", digest(p.fec.conv.generators));
  {
    std::size_t h = 0;
    for (const auto& stream : p.fec.puncture.keep) h ^= digest(stream) * 31;
    add("fec.puncture", h);
  }
  add("interleaver.kind", static_cast<int>(p.interleaver.kind));
  add("interleaver.rows", p.interleaver.rows);
  add("interleaver.seed", p.interleaver.seed);
  add("pilots.base", digest(p.pilots.base_values));
  add("pilots.polarity_prbs", p.pilots.polarity_prbs);
  add("pilots.prbs_degree", p.pilots.prbs_degree);
  add("pilots.prbs_taps", p.pilots.prbs_taps);
  add("pilots.prbs_seed", p.pilots.prbs_seed);
  add("pilots.boost", p.pilots.boost);
  add("frame.symbols", p.frame.symbols_per_frame);
  add("frame.preamble", static_cast<int>(p.frame.preamble));
  add("frame.null_samples", p.frame.null_samples);
  add("frame.phase_ref_seed", p.frame.phase_ref_seed);
  add("nominal_rf_hz", p.nominal_rf_hz);
  return f;
}

}  // namespace

std::size_t parameter_count(const OfdmParams& p) { return fields(p).size(); }

std::size_t parameter_distance(const OfdmParams& a, const OfdmParams& b) {
  const auto fa = fields(a);
  const auto fb = fields(b);
  std::size_t d = 0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].second != fb[i].second) ++d;
  }
  return d;
}

std::string summarize(const OfdmParams& p) {
  const ToneLayout layout = make_tone_layout(p);
  std::ostringstream os;
  os << standard_name(p.standard);
  if (!p.variant.empty()) os << " (" << p.variant << ")";
  os << ": N=" << p.fft_size << ", CP=" << p.cp_len
     << ", data tones=" << layout.data_bins.size()
     << ", pilots=" << layout.pilot_bins.size()
     << ", df=" << p.subcarrier_spacing_hz() / 1e3 << " kHz"
     << ", fs=" << p.sample_rate / 1e6 << " MHz";
  return os.str();
}

}  // namespace ofdm::core
