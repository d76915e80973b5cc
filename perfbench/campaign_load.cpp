// The two campaign workloads: sim::Campaign::run on a seeded deck with
// fixed trial counts (trials.min == trials.max, stop.rel_ci tiny, so
// early stopping never changes the work).
//
//  coded_awgn      4 coded standards x 3 SNR points over AWGN, soft
//                  Viterbi, 4096-bit payloads, 1 worker: loads the RX
//                  decode chain (rx.demodulate), bypasses the channel
//                  library and the scheduler.
//  fading_uncoded  2 standards x 3 channel-library presets x 2 SNR
//                  points, uncoded tap, 256-bit payloads, small
//                  batches, nproc workers: loads channel presets and
//                  the work-stealing scheduler, bypasses Viterbi/RS.
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "replay.hpp"
#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

namespace {

using namespace ofdm;

constexpr int kSetupRepeats = 25;
constexpr int kMinWindowCalls = 3;

struct Workload {
  const char* name;
  std::size_t trials;         ///< per grid point and campaign call
  std::size_t window_workers;
  /// FNV-1a of curves_json for kDefaultSeed.
  std::uint64_t default_digest;
  std::string (*deck)(std::uint64_t seed, std::size_t trials);
};

// The seed draws the campaign and channel seeds (payloads, noise,
// fading realisations); the grid itself is fixed, because decoder cost
// depends on the error rate and a seed must change the data, not the
// amount of work.
std::string coded_awgn_deck(std::uint64_t seed, std::size_t trials) {
  std::ostringstream d;
  d << "name=perfbench_coded_awgn\n"
       "standard=wlan_80211a@12,dvbt,wman_80216a,adsl+fec\n"
       "channel=awgn\n"
       "rx=coded\n"
       "rx.soft=1\n"
       "payload_bits=4096\n"
       "snr_db=3,6,9\n"
    << "trials.min=" << trials << "\ntrials.max=" << trials << "\n"
    << "trials.batch=4\n"
       "stop.rel_ci=1e-12\n"
    << "seed=" << derive_seed(seed, 1) << "\n";
  return d.str();
}

std::string fading_uncoded_deck(std::uint64_t seed, std::size_t trials) {
  std::ostringstream d;
  d << "name=perfbench_fading_uncoded\n"
       "standard=wlan_80211a@6,homeplug\n"
       "channel=itu_veh_a,sui_3,ccir_poor\n"
       "rx=uncoded\n"
       "payload_bits=256\n"
       "snr_db=6,16\n"
    << "trials.min=" << trials << "\ntrials.max=" << trials << "\n"
    << "trials.batch=2\n"
       "stop.rel_ci=1e-12\n"
    << "channel.seed=" << derive_seed(seed, 3) << "\n"
    << "seed=" << derive_seed(seed, 1) << "\n";
  return d.str();
}

/// Transmitted samples of one campaign call: sum over grid points of
/// trials x burst length (a burst's length depends only on the payload
/// size, not on the bits).
double samples_per_call(const sim::ScenarioDeck& deck) {
  std::vector<double> burst_len;
  for (const sim::StandardSpec& s : deck.standards) {
    core::Transmitter tx(s.params);
    const std::size_t pb =
        deck.payload_bits > 0 ? deck.payload_bits : tx.recommended_payload_bits();
    burst_len.push_back(
        static_cast<double>(tx.modulate(bitvec(pb, 0)).samples.size()));
  }
  double total = 0.0;
  for (const sim::PointSpec& p : sim::expand_grid(deck)) {
    total += burst_len[p.standard_index] *
             static_cast<double>(deck.max_trials);
  }
  return total;
}

void check_default_digest(const Workload& w, const Args& args,
                          const std::string& curves, Outcome& out) {
  if (args.seed != kDefaultSeed) return;
  const std::uint64_t h = fnv1a(curves);
  if (h != w.default_digest) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "curve digest %016llx, recorded %016llx",
                  static_cast<unsigned long long>(h),
                  static_cast<unsigned long long>(w.default_digest));
    out.fail(buf, 0);
  }
}

Outcome run_campaign_workload(const Workload& w, const Args& args) {
  Outcome out;
  const std::string text = w.deck(args.seed, w.trials);
  const std::string warm_text = w.deck(args.seed, 1);

  // Set-up: parse, construct, and warm the plan caches and allocator
  // with a one-trial-per-point run of the same grid. Repeated; the
  // median is reported. The FFT plan cache is process-wide, so it is
  // emptied first and every repeat pays for filling it.
  std::vector<double> setup_s;
  std::unique_ptr<sim::Campaign> campaign;
  sim::RunOptions opts;
  opts.threads = w.window_workers;
  for (int k = 0; k < kSetupRepeats; ++k) {
    campaign.reset();
    dsp::fft_plan_cache_clear();
    const auto t0 = Clock::now();
    campaign = std::make_unique<sim::Campaign>(sim::parse_deck(text));
    sim::Campaign(sim::parse_deck(warm_text)).run(opts);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const sim::ScenarioDeck& deck = campaign->deck();

  if (args.trace) {
    ProbeTotals acc;
    const auto t0 = Clock::now();
    std::string why;
    std::uint64_t probes = 0;
    do {
      ++probes;
      if (!probe_deck(deck, acc, why)) {
        out.fail(why, 0);
        break;
      }
    } while (seconds_between(t0, Clock::now()) < args.seconds);
    check_default_digest(w, args, acc.curves, out);
    const double attributed = attributed_fraction(acc.replay);
    if (attributed < kMinAttributed) {
      out.fail("replay spans attribute " + std::to_string(attributed) +
                   " of replay wall time, below " +
                   std::to_string(kMinAttributed),
               0);
    }
    out.attempted = acc.trials * 2 + acc.replay.trials;
    if (!out.correct) out.failed = out.attempted;
    write_trace(w.name);
    put_probe_metrics(acc, probes, out);
    put_absent_daemon_metrics(out);
    return out;
  }

  const double samples = samples_per_call(deck);
  std::vector<double> trials_per_s, msps;
  std::string first_curves;
  const auto t0 = Clock::now();
  int calls = 0;
  while (calls < kMinWindowCalls ||
         seconds_between(t0, Clock::now()) < args.seconds) {
    const sim::CampaignResult r = campaign->run(opts);
    std::uint64_t trials = 0;
    for (const sim::PointResult& p : r.points) trials += p.state.trials;
    out.attempted += trials;
    trials_per_s.push_back(static_cast<double>(trials) / r.elapsed_seconds);
    msps.push_back(samples / r.elapsed_seconds / 1e6);
    const std::string curves = sim::curves_json(deck, r);
    if (calls++ == 0) {
      first_curves = curves;
    } else if (curves != first_curves) {
      out.fail("curves changed between calls of the same deck", 0);
    }
  }

  // Thread invariance: the other worker count must give the same bytes.
  sim::RunOptions other;
  other.threads = w.window_workers == 1 ? many_workers() : 1;
  const sim::CampaignResult check = campaign->run(other);
  if (sim::curves_json(deck, check) != first_curves) {
    out.fail("curves differ between " + std::to_string(opts.threads) +
                 " and " + std::to_string(other.threads) + " workers",
             0);
  }
  check_default_digest(w, args, first_curves, out);
  if (!out.correct) out.failed = out.attempted;

  std::cerr << "perfbench: " << w.name << ": " << calls << " calls, "
            << out.attempted << " trials, workers " << opts.threads << "\n";
  out.put("trials_per_s", median(trials_per_s), "1/s");
  out.put("waveform_msps", median(msps), "Msps");
  out.put("setup_s", median(setup_s), "s");
  return out;
}

}  // namespace

Outcome run_coded_awgn(const Args& args) {
  const Workload w{"coded_awgn", 12, 1, 0x80fbc17dc64c39b4ull,
                   coded_awgn_deck};
  return run_campaign_workload(w, args);
}

Outcome run_fading_uncoded(const Args& args) {
  const Workload w{"fading_uncoded", 64, many_workers(), 0xbd23eabf83c1fe2cull,
                   fading_uncoded_deck};
  return run_campaign_workload(w, args);
}

}  // namespace perfbench
