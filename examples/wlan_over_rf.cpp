// The paper's RF-designer workflow: the 802.11a Mother Model instance is
// wrapped as a Submodel signal source, fed through an analog TX chain
// (back-off -> Rapp PA), and judged at RF level: EVM, spectral regrowth
// against the 802.11a transmit mask, and ACPR — all inside one simulator.
//
// The second half shows the fault-containment workflow on the same
// graph: numerical-health guards watching every block, and a mid-run
// checkpoint that a freshly built graph resumes bit-identically.
//
//   $ ./wlan_over_rf
#include <cstdio>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "metrics/evm.hpp"
#include "metrics/mask.hpp"
#include "obs/stream_hash.hpp"
#include "rf/chain.hpp"
#include "rf/guard.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"
#include "rx/mother/mother_rx.hpp"

int main() {
  using namespace ofdm;

  const auto params = core::profile_wlan_80211a(core::WlanRate::k54);
  std::printf("Source: %s, 54 Mbit/s mode\n\n",
              core::summarize(params).c_str());

  // A clean reference burst and its constellation-domain tones.
  core::Transmitter tx(params);
  Rng rng(7);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  rx::MotherReceiver ref_rx(params);
  const auto clean_tones =
      ref_rx.extract_data_tones(burst.samples, burst.data_symbols);

  std::printf("%-12s %-10s %-12s %-12s %s\n", "backoff_dB", "EVM_%",
              "EVM_dB", "mask_margin", "verdict");
  for (double backoff = 12.0; backoff >= 0.0; backoff -= 2.0) {
    // TX chain: set the PA operating point, amplify, renormalize.
    rf::Chain chain;
    chain.add<rf::Gain>(-backoff);
    chain.add<rf::RappPa>(2.0, 1.0);
    chain.add<rf::Gain>(backoff);
    auto& analyzer = chain.add<rf::SpectrumAnalyzer>([] {
      dsp::WelchConfig cfg;
      cfg.segment = 256;
      cfg.sample_rate = 20e6;
      return cfg;
    }());

    // Run several frames through the chain for a stable spectrum.
    cvec rx_samples;
    for (int frame = 0; frame < 8; ++frame) {
      const cvec out = chain.process(burst.samples);
      if (frame == 0) rx_samples = out;
    }

    // Modulation quality: equalize from the burst's own preamble, then
    // compare data tones against the clean reference.
    rx::MotherReceiver rx(params);
    rx.set_equalizer(rx.estimate_equalizer(rx_samples));
    const auto tones =
        rx.extract_data_tones(rx_samples, burst.data_symbols);
    cvec all_rx;
    cvec all_ref;
    for (std::size_t s = 0; s < tones.size(); ++s) {
      all_rx.insert(all_rx.end(), tones[s].begin(), tones[s].end());
      all_ref.insert(all_ref.end(), clean_tones[s].begin(),
                     clean_tones[s].end());
    }
    const auto evm = metrics::evm(all_rx, all_ref);

    // Spectral regrowth against the standard transmit mask.
    const auto report = metrics::check_mask(
        analyzer.psd(), metrics::wlan_mask(), 8.5e6,
        /*margin_from_hz=*/9e6);

    // 802.11a 17.3.9.6.3 requires EVM <= -25 dB for 64-QAM 3/4.
    const bool evm_ok = evm.rms_db() <= -25.0;
    std::printf("%-12.0f %-10.2f %-12.1f %-12.1f %s\n", backoff,
                evm.rms_percent(), evm.rms_db(), report.worst_margin_db,
                evm_ok && report.pass ? "pass" : "FAIL");
  }

  std::printf(
      "\nThe RF designer reads the operating point straight off this "
      "table:\nthe smallest back-off whose row still passes both the EVM "
      "limit\n(-25 dB for 54 Mbit/s) and the spectral mask.\n");

  // ---- Guarded + checkpointed run -------------------------------------
  // The same 802.11a source streamed through a guarded TX chain. The
  // guards sweep every chunk for NaN/Inf (Throw would pin a fault to
  // the block and sample that produced it); halfway through, the whole
  // graph is checkpointed and a freshly built copy resumes from the
  // bytes — bit-identically, which the stream digests prove.
  auto build = [&params] {
    struct Graph {
      rf::Submodel source;
      rf::Chain chain;
      explicit Graph(const core::OfdmParams& p)
          : source(p, /*gap_samples=*/64, /*payload_seed=*/7) {
        chain.add<rf::Gain>(-8.0);
        chain.add<rf::RappPa>(2.0, 1.0);
        chain.add<rf::Gain>(8.0);
      }
    };
    return Graph(params);
  };

  auto graph = build();
  rf::GuardSet guards({.policy = rf::GuardPolicy::kThrow});
  graph.chain.attach_guards(guards);

  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunks = 16;
  obs::StreamHash digest;
  cvec in;
  cvec out;
  for (std::size_t c = 0; c < kChunks / 2; ++c) {
    graph.source.pull(kChunk, in);
    graph.chain.process(in, out);
    digest.update(out);
  }

  // Checkpoint source + chain as named frames.
  StateWriter snap;
  snap.begin_node(graph.source.name());
  graph.source.save_state(snap);
  snap.end_node();
  snap.begin_node(graph.chain.name());
  graph.chain.save_state(snap);
  snap.end_node();

  // Original run finishes...
  obs::StreamHash full = digest;
  for (std::size_t c = kChunks / 2; c < kChunks; ++c) {
    graph.source.pull(kChunk, in);
    graph.chain.process(in, out);
    full.update(out);
  }

  // ...and so does a fresh graph restored from the snapshot bytes.
  auto resumed = build();
  StateReader r(snap.bytes());
  r.enter_node(resumed.source.name());
  resumed.source.load_state(r);
  r.exit_node();
  r.enter_node(resumed.chain.name());
  resumed.chain.load_state(r);
  r.exit_node();
  obs::StreamHash replay = digest;
  for (std::size_t c = kChunks / 2; c < kChunks; ++c) {
    resumed.source.pull(kChunk, in);
    resumed.chain.process(in, out);
    replay.update(out);
  }

  std::printf(
      "\nGuarded run: %zu blocks watched, %llu samples swept, "
      "%llu faults.\nCheckpoint at chunk %zu/%zu: %zu snapshot bytes; "
      "resumed digest %s\n(uninterrupted %016llx, resumed %016llx).\n",
      guards.size(),
      static_cast<unsigned long long>(guards.at(0).samples_seen()),
      static_cast<unsigned long long>(guards.total_faults()), kChunks / 2,
      kChunks, snap.bytes().size(),
      full.digest() == replay.digest() ? "MATCHES" : "DIVERGED",
      static_cast<unsigned long long>(full.digest()),
      static_cast<unsigned long long>(replay.digest()));

  return full.digest() == replay.digest() ? 0 : 1;
}
