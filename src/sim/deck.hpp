// Scenario decks: the declarative input of the Monte-Carlo campaign
// engine.
//
// A deck is a key=value text block in the spirit of core/params_io —
// line-oriented, '#' comments, order-insensitive, every malformed value
// surfacing as a ConfigError that names the field. Where a parameter
// deck describes ONE transmitter configuration, a scenario deck
// describes a GRID: standards x SNR points x channel presets, plus
// receiver options, Monte-Carlo trial policy and the campaign seed.
// expand_grid() turns the deck into the flat, deterministically ordered
// job matrix the campaign scheduler runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "rx/mother/rx_mode.hpp"

namespace ofdm::sim {

/// One channel/impairment preset from the deck's `channel=` list.
struct ChannelPreset {
  enum class Kind { kAwgn, kMultipath, kTwistedPair, kStandard };
  Kind kind = Kind::kAwgn;
  std::string token;  ///< deck spelling ("awgn", "ccir_poor", ...)

  // multipath: exponential power-delay profile (channel.hpp), static
  // per campaign so every SNR point sees the same realization.
  double rms_delay_samples = 3.0;
  std::size_t n_taps = 8;
  std::uint64_t taps_seed = 77;

  // twisted_pair: single-pole loop model.
  double cutoff_norm = 0.2;
  double attenuation_db = 6.0;

  // kStandard: a named preset from rf/channels/registry.hpp
  // (ccir_*, itu_*, sui_*, rician_k*, cfo_*). `channel_seed` is xor'd
  // into each trial's substream draw so realizations are ergodic
  // across trials yet fully reproducible from the campaign seed.
  std::uint64_t channel_seed = 505;
  double doppler_scale = 1.0;
};

/// One transmitter configuration from the deck's `standard=` list.
struct StandardSpec {
  std::string token;  ///< e.g. "wlan_80211a@24" or "adsl+fec"
  core::OfdmParams params;
};

/// One receiver mode from the deck's `rx=` list. A deck without the key
/// gets the single historical entry (coded), so legacy grids, point
/// indices and RNG substreams stay bit-identical.
struct RxSpec {
  std::string token = "coded";
  rx::RxMode mode = rx::RxMode::kCoded;
};

/// A parsed scenario deck. Defaults match parse_deck()'s documentation;
/// `standard` and `snr_db` are the only required keys.
struct ScenarioDeck {
  std::string name = "campaign";
  std::vector<StandardSpec> standards;
  std::vector<double> snr_db;
  std::vector<ChannelPreset> channels;
  std::vector<RxSpec> rx_modes{RxSpec{}};

  // Optional analog front end ahead of the channel.
  bool pa_enabled = false;
  double pa_backoff_db = 8.0;
  double pa_smoothness = 2.0;
  double phase_noise_hz = 0.0;  ///< 0 = off

  // Receiver options (rx::MotherReceiver).
  bool rx_equalize = true;
  bool rx_pilot_tracking = false;
  bool rx_soft = false;

  // Monte-Carlo trial policy and early stopping.
  std::size_t min_trials = 8;
  std::size_t max_trials = 256;
  std::size_t batch_trials = 8;  ///< trials per early-stop round
  std::size_t min_errors = 20;   ///< no CI stop below this error count
  double stop_rel_ci = 0.25;     ///< stop when CI width <= this * BER
  double confidence = 0.95;

  bool measure_evm = true;
  std::size_t payload_bits = 0;  ///< 0 = recommended per standard
  std::uint64_t seed = 1;
};

/// Parse a deck from text. Unknown keys, missing required keys and
/// malformed values throw ofdm::ConfigError naming the field.
ScenarioDeck parse_deck(const std::string& text);

/// Resolve one `standard=` token ("wlan_80211a@24", "drm@B", ...) to
/// its transmitter parameters; throws ofdm::ConfigError on unknown
/// tokens/variants. Exposed for callers outside deck parsing (the
/// waveform service accepts the same tokens as a deck shorthand).
StandardSpec parse_standard_token(const std::string& token);

/// One grid point of the expanded job matrix. `index` is the point's
/// position in the deterministic expansion order (standard-major, then
/// channel, then rx mode, then SNR) and the counter fed to
/// Rng::substream.
struct PointSpec {
  std::size_t index = 0;
  std::size_t standard_index = 0;
  std::size_t channel_index = 0;
  std::size_t rx_index = 0;
  double snr_db = 0.0;
};

/// Expand the deck into its job matrix: for each standard, for each
/// channel preset, for each rx mode, for each SNR value, in deck order.
/// A deck without an `rx=` key has exactly one rx mode, so legacy decks
/// expand to their historical indices.
std::vector<PointSpec> expand_grid(const ScenarioDeck& deck);

/// Stable 64-bit digest over every campaign-relevant deck field (not
/// the raw text, so comments and key order don't matter). A checkpoint
/// records it; resuming under a different deck fails loudly instead of
/// merging incompatible counters.
std::uint64_t deck_digest(const ScenarioDeck& deck);

}  // namespace ofdm::sim
