#include "sim/trial.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "metrics/ber.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm::sim {

struct LinkRunner::State {
  const ScenarioDeck& deck;
  PointSpec point;
  core::Transmitter tx;
  rx::MotherReceiver rx;
  rx::MotherReceiver ref_rx;  ///< equalizer-free, for clean reference tones
  std::size_t payload_bits = 0;
  cvec channel_taps;  ///< multipath / twisted-pair FIR, empty for AWGN

  // Trial scratch, reused by every trial the runner runs: a trial
  // reads none of it before writing it, so no value carries over.
  bitvec payload;
  core::Transmitter::Burst burst;
  cvec rx_samples;
  rx::MotherReceiver::Result decoded;
  rx::MotherReceiver::Scratch rx_scratch;  ///< shared by rx and ref_rx
  std::vector<cvec> tones;      ///< rx's data tones, for EVM
  std::vector<cvec> ref_tones;  ///< ref_rx's clean tones, for EVM

  TrialResult run_one(std::size_t trial_index);

  State(const ScenarioDeck& d, const PointSpec& p)
      : deck(d),
        point(p),
        tx(d.standards.at(p.standard_index).params),
        rx(d.standards.at(p.standard_index).params),
        ref_rx(d.standards.at(p.standard_index).params) {
    payload_bits = d.payload_bits > 0 ? d.payload_bits
                                      : tx.recommended_payload_bits();
    OFDM_REQUIRE(payload_bits > 0,
                 "sim: standard '" +
                     d.standards.at(p.standard_index).token +
                     "' yields an empty payload");
    rx.set_mode(d.rx_modes.at(p.rx_index).mode);
    rx.set_pilot_tracking(d.rx_pilot_tracking);
    rx.set_demap(d.rx_soft ? mapping::DemapMode::kSoft
                           : mapping::DemapMode::kHard);

    const ChannelPreset& ch = d.channels.at(p.channel_index);
    switch (ch.kind) {
      case ChannelPreset::Kind::kAwgn:
        break;
      case ChannelPreset::Kind::kMultipath:
        // One static realization per campaign: every SNR point of a
        // curve sees the same channel, so the curve isolates SNR.
        channel_taps = rf::exponential_pdp_taps(
            ch.rms_delay_samples, ch.n_taps, ch.taps_seed);
        break;
      case ChannelPreset::Kind::kTwistedPair:
        channel_taps =
            rf::twisted_pair_taps(ch.cutoff_norm, ch.attenuation_db);
        break;
      case ChannelPreset::Kind::kStandard:
        // Built per trial in run_one: standard presets are ergodic,
        // each trial draws a fresh seeded realization so the curve
        // averages over the fading distribution.
        break;
    }
  }
};

LinkRunner::LinkRunner(const ScenarioDeck& deck, const PointSpec& point)
    : state_(std::make_unique<State>(deck, point)) {}
LinkRunner::~LinkRunner() = default;
LinkRunner::LinkRunner(LinkRunner&&) noexcept = default;
LinkRunner& LinkRunner::operator=(LinkRunner&&) noexcept = default;

std::size_t LinkRunner::payload_bits() const {
  return state_->payload_bits;
}

std::size_t LinkRunner::run_trials(std::size_t first_trial,
                                   std::span<TrialResult> results,
                                   const CancelToken* cancel) {
  State& s = *state_;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (cancel != nullptr && cancel->stop_requested()) return i;
    results[i] = s.run_one(first_trial + i);
  }
  return results.size();
}

TrialResult LinkRunner::State::run_one(std::size_t trial_index) {
  const auto t0 = std::chrono::steady_clock::now();
  State& s = *this;
  const ScenarioDeck& d = s.deck;

  // Everything stochastic in this trial flows from one substream.
  Rng rng = Rng::substream(d.seed, s.point.index, trial_index);
  s.payload.resize(s.payload_bits);
  rng.bits_into(s.payload);
  const bitvec& payload = s.payload;
  const std::uint64_t phase_noise_seed = rng.next_u64();
  const std::uint64_t awgn_seed = rng.next_u64();
  // Drawn last (and only for standard presets) so decks without one
  // keep their historical trial streams bit-for-bit.
  const ChannelPreset& ch = d.channels.at(s.point.channel_index);
  std::uint64_t channel_seed = 0;
  if (ch.kind == ChannelPreset::Kind::kStandard) {
    channel_seed = rng.next_u64() ^ ch.channel_seed;
  }

  s.tx.modulate_into(payload, burst);

  // SNR is defined against the transmitted burst's average power (the
  // channel presets are unit-average-power, so this is also the mean
  // receive signal power up to the channel's realization).
  double sig_power = 0.0;
  for (const cplx& x : burst.samples) sig_power += std::norm(x);
  sig_power /= static_cast<double>(burst.samples.size());

  rf::Chain chain;
  if (d.pa_enabled) {
    chain.add<rf::Gain>(-d.pa_backoff_db);
    chain.add<rf::RappPa>(d.pa_smoothness, 1.0);
    chain.add<rf::Gain>(d.pa_backoff_db);
  }
  if (d.phase_noise_hz > 0.0) {
    chain.add<rf::PhaseNoise>(
        d.phase_noise_hz,
        d.standards.at(s.point.standard_index).params.sample_rate,
        phase_noise_seed);
  }
  if (!s.channel_taps.empty()) {
    chain.add<rf::MultipathChannel>(s.channel_taps);
  }
  if (ch.kind == ChannelPreset::Kind::kStandard) {
    rf::channels::MakeOptions opts;
    opts.sample_rate =
        d.standards.at(s.point.standard_index).params.sample_rate;
    opts.seed = channel_seed;
    opts.doppler_scale = ch.doppler_scale;
    chain.add_ptr(rf::channels::make_preset(ch.token, opts));
  }
  const double noise_power =
      rf::snr_to_noise_power(sig_power, s.point.snr_db);
  chain.add<rf::AwgnChannel>(noise_power, awgn_seed);

  chain.process(burst.samples, rx_samples);

  if (d.rx_equalize) {
    s.rx.train_equalizer(rx_samples, s.rx_scratch);
  } else {
    s.rx.clear_equalizer();
  }
  // Normalize soft LLRs by the true tone-domain noise floor (the
  // max-log Viterbi is scale-invariant, so coded decisions don't move;
  // anything consuming absolute LLRs sees calibrated values).
  if (s.rx.soft_path_active()) {
    s.rx.set_noise_from_sample_variance(noise_power);
  }
  s.rx.demodulate_into(rx_samples, payload.size(), s.decoded, s.rx_scratch,
                       d.measure_evm ? &s.tones : nullptr);
  const rx::MotherReceiver::Result& decoded = s.decoded;

  TrialResult r;
  metrics::BerResult b;
  if (d.rx_modes.at(s.point.rx_index).mode == rx::RxMode::kUncoded) {
    // Pre-FEC channel BER: the raw demapped stream (symbol padding
    // included) against the coded stream this trial's burst carries.
    b = metrics::ber(s.tx.last_coded_bits(), decoded.raw_bits);
  } else {
    b = metrics::ber(payload, decoded.payload);
  }
  r.bits = b.bits;
  r.errors = b.errors;

  if (d.measure_evm) {
    s.ref_rx.extract_data_tones_into(burst.samples, burst.data_symbols,
                                     s.ref_tones, s.rx_scratch);
    // demodulate() pads to the transmitter's symbol count, so its tones
    // cover every data symbol of the burst.
    OFDM_REQUIRE(s.tones.size() >= s.ref_tones.size(),
                 "sim: receiver demodulated fewer symbols than sent");
    for (std::size_t sym = 0; sym < s.ref_tones.size(); ++sym) {
      const cvec& a = s.tones[sym];
      const cvec& b2 = s.ref_tones[sym];
      const std::size_t n = std::min(a.size(), b2.size());
      for (std::size_t i = 0; i < n; ++i) {
        r.evm_err2 += std::norm(a[i] - b2[i]);
        r.evm_ref2 += std::norm(b2[i]);
      }
    }
  }

  r.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

}  // namespace ofdm::sim
