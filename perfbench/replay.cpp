#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "metrics/ber.hpp"
#include "obs/trace.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rx/mother/mother_rx.hpp"
#include "sim/aggregator.hpp"

namespace perfbench {

namespace {

using namespace ofdm;

/// Contiguous spans: each mark() closes the lap that started at the
/// previous mark, records it as a span of `layer` and adds it to the
/// layer's total.
class Laps {
 public:
  explicit Laps(ReplayTotals& totals)
      : totals_(totals), last_(obs::Tracer::now_ns()) {}
  void restart() { last_ = obs::Tracer::now_ns(); }
  void mark(Layer layer) {
    const std::uint64_t now = obs::Tracer::now_ns();
    obs::Tracer::instance().record(kLayerNames[layer], last_, now - last_);
    totals_.layer_s[layer] += static_cast<double>(now - last_) * 1e-9;
    last_ = now;
  }

 private:
  ReplayTotals& totals_;
  std::uint64_t last_;
};

}  // namespace

bool replay_campaign(const sim::ScenarioDeck& d,
                     const sim::CampaignResult& reference,
                     ReplayTotals& totals, std::string& why) {
  OFDM_REQUIRE(!d.pa_enabled && d.phase_noise_hz == 0.0,
               "replay: PA and phase noise are not modelled");
  const auto t0 = Clock::now();
  Laps laps(totals);
  core::Transmitter::Burst burst;
  cvec faded, rx_samples;

  for (const sim::PointResult& pr : reference.points) {
    const sim::PointSpec& p = pr.spec;
    const core::OfdmParams& params =
        d.standards.at(p.standard_index).params;
    const sim::ChannelPreset& ch = d.channels.at(p.channel_index);
    OFDM_REQUIRE(ch.kind == sim::ChannelPreset::Kind::kAwgn ||
                     ch.kind == sim::ChannelPreset::Kind::kStandard,
                 "replay: channel '" + ch.token + "' is not modelled");
    const bool standard_preset =
        ch.kind == sim::ChannelPreset::Kind::kStandard;
    const bool uncoded =
        d.rx_modes.at(p.rx_index).mode == rx::RxMode::kUncoded;

    // Runner construction, as in LinkRunner::State (not attributed).
    core::Transmitter tx(params);
    rx::MotherReceiver rx(params);
    rx::MotherReceiver ref_rx(params);
    const std::size_t payload_bits =
        d.payload_bits > 0 ? d.payload_bits : tx.recommended_payload_bits();
    rx.set_mode(d.rx_modes.at(p.rx_index).mode);
    rx.set_pilot_tracking(d.rx_pilot_tracking);
    rx.set_demap(d.rx_soft ? mapping::DemapMode::kSoft
                           : mapping::DemapMode::kHard);

    sim::PointState st;
    laps.restart();
    for (std::size_t trial = 0; trial < pr.state.trials; ++trial) {
      Rng rng = Rng::substream(d.seed, p.index, trial);
      const bitvec payload = rng.bits(payload_bits);
      rng.next_u64();  // phase-noise seed (unused: no phase noise)
      const std::uint64_t awgn_seed = rng.next_u64();
      const std::uint64_t channel_seed =
          standard_preset ? rng.next_u64() ^ ch.channel_seed : 0;
      laps.mark(kSimOther);

      tx.modulate_into(payload, burst);
      laps.mark(kCoreModulate);

      double sig_power = 0.0;
      for (const cplx& x : burst.samples) sig_power += std::norm(x);
      sig_power /= static_cast<double>(burst.samples.size());
      laps.mark(kSimOther);

      // The same chain LinkRunner builds; its blocks are driven one at
      // a time below so the preset and the AWGN get separate spans.
      // process(), not process_observed(): a block's own span is named
      // by its label, which dies with this per-trial chain before the
      // trace is written.
      rf::Chain chain;
      if (standard_preset) {
        rf::channels::MakeOptions opts;
        opts.sample_rate = params.sample_rate;
        opts.seed = channel_seed;
        opts.doppler_scale = ch.doppler_scale;
        chain.add_ptr(rf::channels::make_preset(ch.token, opts));
      }
      const double noise_power =
          rf::snr_to_noise_power(sig_power, p.snr_db);
      chain.add<rf::AwgnChannel>(noise_power, awgn_seed);
      laps.mark(kRfBuild);

      std::span<const cplx> awgn_in = burst.samples;
      if (standard_preset) {
        chain.at(0).process(burst.samples, faded);
        awgn_in = faded;
      }
      laps.mark(kRfChannel);
      chain.at(chain.size() - 1).process(awgn_in, rx_samples);
      laps.mark(kRfAwgn);

      if (d.rx_equalize) {
        rx.set_equalizer(rx.estimate_equalizer(rx_samples));
      } else {
        rx.clear_equalizer();
      }
      if (rx.soft_path_active()) {
        rx.set_noise_from_sample_variance(noise_power);
      }
      laps.mark(kRxEqualize);

      const auto decoded = rx.demodulate(rx_samples, payload.size());
      laps.mark(kRxDemodulate);

      sim::TrialResult r;
      const metrics::BerResult b =
          uncoded ? metrics::ber(tx.encode_payload(payload),
                                 decoded.raw_bits)
                  : metrics::ber(payload, decoded.payload);
      r.bits = b.bits;
      r.errors = b.errors;
      laps.mark(kMetricsBer);

      if (d.measure_evm) {
        const auto ref_tones =
            ref_rx.extract_data_tones(burst.samples, burst.data_symbols);
        const auto tones =
            rx.extract_data_tones(rx_samples, burst.data_symbols);
        for (std::size_t sym = 0; sym < tones.size(); ++sym) {
          const cvec& a = tones[sym];
          const cvec& b2 = ref_tones[sym];
          const std::size_t n = std::min(a.size(), b2.size());
          for (std::size_t i = 0; i < n; ++i) {
            r.evm_err2 += std::norm(a[i] - b2[i]);
            r.evm_ref2 += std::norm(b2[i]);
          }
        }
      }
      laps.mark(kRxEvm);

      st.accumulate(r);
      totals.rs_blocks_failed += decoded.rs_blocks_failed;
      totals.samples += burst.samples.size();
      ++totals.trials;
    }

    const sim::PointState& ref = pr.state;
    if (st.trials != ref.trials || st.bits != ref.bits ||
        st.errors != ref.errors || st.evm_err2 != ref.evm_err2 ||
        st.evm_ref2 != ref.evm_ref2) {
      why = "replay of point " + std::to_string(p.index) + " (" +
            pr.standard + ", " + pr.channel + ") gives " +
            std::to_string(st.errors) + "/" + std::to_string(st.bits) +
            " errors/bits, campaign " + std::to_string(ref.errors) + "/" +
            std::to_string(ref.bits);
      return false;
    }
  }
  totals.wall_s += seconds_between(t0, Clock::now());
  return true;
}

bool probe_deck(const sim::ScenarioDeck& deck, ProbeTotals& acc,
                std::string& why) {
  sim::Campaign campaign(deck);
  acc.workers = many_workers();

  sim::RunOptions one;
  one.threads = 1;
  const sim::CampaignResult r1 = campaign.run(one);

  sim::RunOptions many;
  many.threads = acc.workers;
  Clock::time_point last;
  many.on_round = [&acc, &last](std::size_t, std::size_t, std::size_t) {
    const auto now = Clock::now();
    acc.round_gaps_ms.push_back(seconds_between(last, now) * 1e3);
    last = now;
  };
  last = Clock::now();
  const sim::CampaignResult rn = campaign.run(many);

  acc.curves = sim::curves_json(deck, r1);
  if (acc.curves != sim::curves_json(deck, rn)) {
    why = "curves differ between 1 and " + std::to_string(acc.workers) +
          " workers";
    return false;
  }
  for (const sim::PointResult& p : r1.points) {
    acc.busy1_s += p.state.seconds;
    acc.trials += p.state.trials;
    acc.bits += p.state.bits;
    acc.errors += p.state.errors;
  }
  for (const sim::PointResult& p : rn.points) acc.busyn_s += p.state.seconds;
  acc.wall1_s += r1.elapsed_seconds;
  acc.walln_s += rn.elapsed_seconds;

  obs::Tracer::instance().enable(kTraceRing);
  const bool same = replay_campaign(deck, r1, acc.replay, why);
  obs::Tracer::instance().disable();
  return same;
}

double attributed_fraction(const ReplayTotals& totals) {
  double attributed = 0.0;
  for (const double s : totals.layer_s) attributed += s;
  return totals.wall_s > 0.0 ? attributed / totals.wall_s : 0.0;
}

void put_probe_metrics(const ProbeTotals& acc, std::uint64_t repeats,
                       Outcome& out) {
  const ReplayTotals& rp = acc.replay;
  const double trials = static_cast<double>(std::max<std::uint64_t>(
      rp.trials, 1));
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    out.put(std::string(kLayerNames[l]) + "_us", rp.layer_s[l] / trials * 1e6,
            "us");
  }
  const double workers = static_cast<double>(acc.workers);
  out.put("sim.idle_fraction",
          acc.walln_s > 0.0 ? 1.0 - acc.busyn_s / (workers * acc.walln_s)
                            : 0.0,
          "ratio");
  out.put("sim.busy_inflation",
          acc.busy1_s > 0.0 ? acc.busyn_s / acc.busy1_s : 0.0, "ratio");
  out.put("sim.scaling", acc.walln_s > 0.0 ? acc.wall1_s / acc.walln_s : 0.0,
          "ratio");
  out.put("sim.round_p50_ms", median(acc.round_gaps_ms), "ms");
  const auto count = [repeats](std::uint64_t n) {
    return static_cast<double>(n / std::max<std::uint64_t>(repeats, 1));
  };
  out.put("trials", count(acc.trials), "count");
  out.put("bits", count(acc.bits), "count");
  out.put("errors", count(acc.errors), "count");
  out.put("rx.rs_blocks_failed", count(rp.rs_blocks_failed), "count");
  out.put("core.samples", count(rp.samples), "count");
  out.put("trace.attributed", attributed_fraction(rp), "ratio");
  out.put("trace.overhead",
          acc.wall1_s > 0.0 ? rp.wall_s / acc.wall1_s - 1.0 : 0.0, "ratio");
}

void write_trace(const std::string& label) {
  const std::string path = artefact_dir() + "/trace-" + label + ".json";
  if (!obs::Tracer::instance().write_chrome_trace_file(path)) {
    std::cerr << "perfbench: cannot write " << path << "\n";
  } else {
    std::cerr << "perfbench: Chrome trace in " << path << "\n";
  }
}

}  // namespace perfbench
