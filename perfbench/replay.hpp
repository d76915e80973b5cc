// Outside-in per-layer attribution of campaign trials.
//
// replay_campaign() re-executes the trials of a finished sim::Campaign
// with the same deck, seeds and trial indices, built only from public
// calls into core, rf, rx and metrics, and times each step as a span
// recorded with obs::Tracer::record. The spans are contiguous laps, so
// nearly all of the replay's wall time is attributed to a named layer;
// spans the library emits itself (Transmitter::modulate) land inside
// them and are charged to the enclosing lap.
//
// probe_deck() wraps one deck: an untraced 1-worker run, an untraced
// many-worker run observed through RunOptions::on_round and
// PointState::seconds, and a traced replay checked against them.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

/// Span ring of a traced run: enough for the tail of a replay; older
/// spans are overwritten (the per-layer sums do not read the ring).
inline constexpr std::size_t kTraceRing = 1u << 17;

enum Layer : std::size_t {
  kSimOther,       ///< substream draw and signal power
  kCoreModulate,   ///< Transmitter::modulate_into
  kRfBuild,        ///< rf::Chain assembly + channels::make_preset
  kRfChannel,      ///< channel-preset block (empty lap on AWGN decks)
  kRfAwgn,         ///< AWGN block
  kRxEqualize,     ///< equalizer estimate + soft noise floor
  kRxDemodulate,   ///< MotherReceiver::demodulate
  kRxEvm,          ///< two extract_data_tones calls + EVM sums
  kMetricsBer,     ///< BER count (+ encode_payload reference if uncoded)
  kLayerCount
};

/// Span names double as metric stems ("<name>_us").
inline constexpr const char* kLayerNames[kLayerCount] = {
    "sim.other",  "core.modulate", "rf.build",
    "rf.channel", "rf.awgn",       "rx.equalize",
    "rx.demodulate", "rx.evm",     "metrics.ber"};

struct ReplayTotals {
  std::array<double, kLayerCount> layer_s{};
  double wall_s = 0.0;  ///< replay wall time, runner construction included
  std::uint64_t trials = 0;
  std::uint64_t rs_blocks_failed = 0;
  std::uint64_t samples = 0;  ///< transmitted burst samples
};

/// Replay every trial `reference` reduced and compare per-point
/// trials, bits, errors and EVM sums exactly. Returns false with the
/// first difference in `why`. Throws ofdm::ConfigError for deck
/// features the replay does not model (PA, phase noise, multipath and
/// twisted-pair presets).
bool replay_campaign(const ofdm::sim::ScenarioDeck& deck,
                     const ofdm::sim::CampaignResult& reference,
                     ReplayTotals& totals, std::string& why);

struct ProbeTotals {
  ReplayTotals replay;
  std::size_t workers = 0;
  double busy1_s = 0.0;  ///< summed trial seconds, 1 worker
  double wall1_s = 0.0;
  double busyn_s = 0.0;  ///< summed trial seconds, `workers` workers
  double walln_s = 0.0;
  std::vector<double> round_gaps_ms;  ///< between on_round completions
  std::uint64_t trials = 0, bits = 0, errors = 0;
  std::string curves;  ///< curves_json of the last probed deck
};

/// Probe one deck (see the header comment). Returns false with the
/// reason when 1-worker and many-worker curves differ or the replay
/// does not reproduce the campaign's counters.
bool probe_deck(const ofdm::sim::ScenarioDeck& deck, ProbeTotals& acc,
                std::string& why);

/// Share of replay wall time covered by layer spans, the rule of
/// obs::Report::attributed_fraction (`trace.attributed`).
double attributed_fraction(const ReplayTotals& totals);

/// Lowest `trace.attributed` a traced campaign workload accepts.
inline constexpr double kMinAttributed = 0.95;

/// Emit the replay, scheduler and trace metrics of `acc`. The exact
/// counts (trials, bits, errors, rx.rs_blocks_failed, core.samples) are
/// divided by `repeats`, the number of times the same deck was probed,
/// so they do not depend on how many probes fit the window.
void put_probe_metrics(const ProbeTotals& acc, std::uint64_t repeats,
                       Outcome& out);

/// Write the Chrome trace of the last replay (the tracer runs only
/// during replays) to `<artefact_dir>/trace-<label>.json`.
void write_trace(const std::string& label);

}  // namespace perfbench
