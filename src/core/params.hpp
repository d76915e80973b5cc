// OfdmParams — the Mother Model's reconfiguration parameter set.
//
// This struct is the paper's central idea made concrete: *one* behavioural
// transmitter model whose changeover from standard to standard "is achieved
// simply by changing the parameters of one Mother Model". Everything a
// family member needs — symbol geometry, tone roles, mapping, coding,
// scrambling, interleaving, framing — is plain data here; the Transmitter
// interprets it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "coding/convolutional.hpp"
#include "common/types.hpp"
#include "core/standard.hpp"
#include "mapping/bitloading.hpp"
#include "mapping/constellation.hpp"
#include "mapping/differential.hpp"

namespace ofdm::core {

/// Role of one FFT bin within the OFDM symbol.
enum class ToneType : std::uint8_t {
  kNull,   ///< guard band / virtual carrier / DC null
  kData,   ///< carries payload constellation points
  kPilot,  ///< carries a known reference value
};

/// How payload bits become complex tone values.
enum class MappingKind {
  kFixed,         ///< one constellation for all data tones
  kDifferential,  ///< phase-differential in time per carrier (DAB, HomePlug)
  kBitTable,      ///< per-tone bit loading (DMT: ADSL/ADSL2+/VDSL)
};

/// Additive scrambler configuration (see coding/lfsr.hpp conventions).
struct ScramblerConfig {
  bool enabled = false;
  unsigned degree = 7;
  std::uint64_t taps = 0;
  std::uint64_t seed = 1;
};

/// Forward error correction chain: optional outer Reed-Solomon followed by
/// an optional inner convolutional code with puncturing.
struct FecConfig {
  bool rs_enabled = false;
  std::size_t rs_n = 204;
  std::size_t rs_k = 188;
  bool conv_enabled = false;
  coding::ConvCode conv = coding::k7_industry_code();
  coding::PuncturePattern puncture = coding::puncture_none();
};

/// Per-OFDM-symbol interleaving of the coded bit stream.
enum class InterleaverKind {
  kNone,
  kWlan,    ///< 802.11a two-permutation interleaver over N_CBPS
  kBlock,   ///< rows x cols block interleaver over one symbol's bits
  kCell,    ///< seeded pseudo-random permutation of mapped QAM cells
};

struct InterleaverConfig {
  InterleaverKind kind = InterleaverKind::kNone;
  std::size_t rows = 1;        ///< kBlock only
  std::uint64_t seed = 1;      ///< kCell only
};

/// Known-reference (pilot) tone behaviour. Pilots take a fixed base value
/// per pilot tone, multiplied by a per-symbol polarity PRBS when enabled
/// (the 802.11a p_n sequence, DVB's pilot modulation, ...).
struct PilotConfig {
  /// Base value per pilot tone, in ascending logical-frequency order.
  cvec base_values;
  bool polarity_prbs = false;
  unsigned prbs_degree = 7;
  std::uint64_t prbs_taps = 0;
  std::uint64_t prbs_seed = 0x7F;
  double boost = 1.0;  ///< amplitude boost (DVB pilots use 4/3)
};

/// Frame-level structure around the payload symbols.
enum class PreambleKind {
  kNone,
  kWlan,            ///< 802.11a short + long training fields
  kPhaseReference,  ///< one known reference symbol (DAB/DRM style); also
                    ///< seeds the differential mapper
};

struct FrameConfig {
  std::size_t symbols_per_frame = 1;   ///< payload symbols per frame
  PreambleKind preamble = PreambleKind::kNone;
  std::size_t null_samples = 0;        ///< leading silence (DAB null symbol)
  std::uint64_t phase_ref_seed = 1;    ///< kPhaseReference generator seed
};

/// The complete reconfiguration state of the Mother Model.
struct OfdmParams {
  Standard standard = Standard::kWlan80211a;
  std::string variant;          ///< human-readable mode tag ("mode B", ...)

  // --- symbol geometry -------------------------------------------------
  double sample_rate = 20e6;    ///< complex baseband samples/s
  std::size_t fft_size = 64;
  std::size_t cp_len = 16;
  std::size_t window_ramp = 0;  ///< raised-cosine edge overlap samples
  bool hermitian = false;       ///< real (DMT/powerline) output via
                                ///< conjugate-symmetric spectrum

  /// Role of every FFT bin, natural order (index 0 = DC). When
  /// `hermitian` is set, only bins 1 .. fft_size/2 - 1 may be non-null;
  /// the negative-frequency half is derived.
  std::vector<ToneType> tone_map;

  // --- bits -> tones ---------------------------------------------------
  MappingKind mapping = MappingKind::kFixed;
  mapping::Scheme scheme = mapping::Scheme::kBpsk;    ///< kFixed
  mapping::DiffKind diff_kind = mapping::DiffKind::kDqpsk;  ///< kDifferential
  mapping::BitTable bit_table;  ///< kBitTable: one entry per *data* tone,
                                ///< ascending logical frequency

  // --- bit-stream processing -------------------------------------------
  ScramblerConfig scrambler;
  FecConfig fec;
  InterleaverConfig interleaver;
  PilotConfig pilots;
  FrameConfig frame;

  /// Nominal RF centre frequency (Hz) — carried as metadata for the RF
  /// simulator; the baseband model itself is centre-frequency agnostic.
  double nominal_rf_hz = 0.0;

  // --- derived conveniences ---------------------------------------------
  double subcarrier_spacing_hz() const {
    return sample_rate / static_cast<double>(fft_size);
  }
  std::size_t symbol_len() const { return fft_size + cp_len; }
  double symbol_duration_s() const {
    return static_cast<double>(symbol_len()) / sample_rate;
  }
};

/// Tone bookkeeping derived from a tone map: which bins are data/pilot,
/// in ascending logical-frequency order (bin index into the FFT vector).
struct ToneLayout {
  std::vector<std::size_t> data_bins;
  std::vector<std::size_t> pilot_bins;
  std::size_t used_tones() const {
    return data_bins.size() + pilot_bins.size();
  }
};

/// Build the layout, walking logical frequencies from most negative to
/// most positive (or 1..N/2-1 for hermitian configurations).
ToneLayout make_tone_layout(const OfdmParams& p);

/// Validate a parameter set; throws ofdm::ConfigError with a description
/// of the first inconsistency found.
void validate(const OfdmParams& p);

/// Coded bits carried by one OFDM symbol under these parameters.
std::size_t coded_bits_per_symbol(const OfdmParams& p);

/// Number of scalar configuration parameters in an OfdmParams (the
/// "model surface" used by the derivation-effort experiment E3).
std::size_t parameter_count(const OfdmParams& p);

/// Number of scalar parameters that differ between two configurations —
/// the paper's "changeover by changing the parameters" measured.
std::size_t parameter_distance(const OfdmParams& a, const OfdmParams& b);

/// One-line human-readable summary (used by examples and benches).
std::string summarize(const OfdmParams& p);

}  // namespace ofdm::core
