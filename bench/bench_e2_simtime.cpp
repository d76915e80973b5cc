// Experiment E2 — the paper's simulation-time claim (§1, §3):
//   "The IP blocks on the market are typically described at RT-level
//    which causes an impractical increase to the simulation times."
//   "Since the digital block was modeled at behavioral level, it was
//    fast to simulate i.e. it had only negligible influence on the
//    total simulation time of the whole transmitter."
//
// Measured three ways on identical 802.11a bursts:
//   (a) behavioural Mother Model   — ns per produced baseband sample
//   (b) cycle-level RTL datapath   — ns per produced baseband sample
//   (c) full RF co-simulation      — share of wall-clock spent in the
//       behavioural source vs the analog chain.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/frontend.hpp"
#include "rf/pa.hpp"
#include "rf/submodel.hpp"
#include "rtl/wlan_tx.hpp"

namespace {

using namespace ofdm;

core::OfdmParams behavioural_params(std::size_t n_symbols) {
  core::OfdmParams p = core::profile_wlan_80211a(core::WlanRate::k6);
  p.frame.preamble = core::PreambleKind::kNone;  // match the RTL datapath
  p.window_ramp = 0;
  p.frame.symbols_per_frame = n_symbols;
  return p;
}

void BM_BehaviouralTx(benchmark::State& state) {
  const auto n_symbols = static_cast<std::size_t>(state.range(0));
  core::Transmitter tx(behavioural_params(n_symbols));
  Rng rng(1);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  std::size_t samples = 0;
  for (auto _ : state) {
    auto burst = tx.modulate(payload);
    benchmark::DoNotOptimize(burst.samples.data());
    samples += burst.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  state.counters["ns_per_sample"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate |
                                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_BehaviouralTx)->Arg(4)->Arg(16)->Arg(64);

void BM_RtlTx(benchmark::State& state) {
  const auto n_symbols = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const bitvec payload = rng.bits(n_symbols * 24 - 6);
  std::size_t samples = 0;
  for (auto _ : state) {
    auto run = rtl::run_wlan_tx(mapping::Scheme::kBpsk, n_symbols,
                                payload);
    benchmark::DoNotOptimize(run.samples.data());
    samples += run.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  state.counters["ns_per_sample"] = benchmark::Counter(
      static_cast<double>(samples), benchmark::Counter::kIsRate |
                                        benchmark::Counter::kInvert);
}
BENCHMARK(BM_RtlTx)->Arg(4)->Arg(16);

// The analog chain alone (tone source) isolates the non-source cost of
// a co-simulation step.
void BM_RfChainOnly(benchmark::State& state) {
  rf::ToneSource src(1e6, 20e6);
  rf::Chain chain;
  chain.add<rf::Gain>(-8.0);
  chain.add<rf::RappPa>(2.0, 1.0);
  chain.add<rf::AwgnChannel>(0.01, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.process(src.pull(4096)).data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_RfChainOnly);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E2: behavioural vs RT-level simulation time (paper "
              "§1/§3) ===\n\n");

  // --- headline table: identical bursts, two abstraction levels --------
  double slowdown = 0.0;  // RT-level / behavioural ns per sample
  {
    const std::size_t n_symbols = 16;
    Rng rng(1);
    const bitvec payload = rng.bits(n_symbols * 24 - 6);

    core::Transmitter tx(behavioural_params(n_symbols));
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t beh_samples = 0;
    const int beh_reps = 200;
    for (int i = 0; i < beh_reps; ++i) {
      beh_samples += tx.modulate(payload).samples.size();
    }
    const double beh_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    const auto t1 = std::chrono::steady_clock::now();
    const auto rtl_run =
        rtl::run_wlan_tx(mapping::Scheme::kBpsk, n_symbols, payload);
    const double rtl_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t1)
                             .count();

    const double beh_ns =
        1e9 * beh_s / static_cast<double>(beh_samples);
    const double rtl_ns =
        1e9 * rtl_s / static_cast<double>(rtl_run.samples.size());

    std::printf("%-28s %-16s %-16s\n", "model", "ns/sample",
                "kernel activity");
    std::printf("%-28s %-16.1f %-16s\n", "behavioural Mother Model",
                beh_ns, "-");
    char activity[64];
    std::snprintf(activity, sizeof activity, "%.1fk events",
                  static_cast<double>(rtl_run.stats.timed_events) / 1e3);
    std::printf("%-28s %-16.1f %-16s\n", "RT-level datapath", rtl_ns,
                activity);
    slowdown = rtl_ns / beh_ns;
    std::printf("\nRT-level / behavioural slowdown: %.0fx\n\n", slowdown);
  }

  // --- co-simulation share: source vs analog chain ----------------------
  {
    rf::Submodel src(core::profile_wlan_80211a(core::WlanRate::k36), 80);
    rf::Chain chain;
    chain.add<rf::Gain>(-8.0);
    chain.add<rf::RappPa>(2.0, 1.0);
    chain.add<rf::MultipathChannel>(
        rf::exponential_pdp_taps(2.0, 8, 99));
    chain.add<rf::AwgnChannel>(0.01, 7);
    const rf::RunStats stats = rf::run(src, chain, 1 << 20, 4096);

    std::printf("Full RF co-simulation, 2^20 samples:\n");
    std::printf("  total wall-clock:        %.3f s\n",
                stats.elapsed_seconds);
    const double source_share =
        stats.source_seconds / stats.elapsed_seconds;
    std::printf("  digital source share:    %.1f %%\n",
                100.0 * source_share);
    std::printf("  analog chain share:      %.1f %%\n",
                100.0 * (1.0 - source_share));
    // Counterfactual: replace the behavioural source with the RT-level
    // one at the slowdown measured above.
    const double rtl_source = slowdown * stats.source_seconds;
    const double chain_time =
        stats.elapsed_seconds - stats.source_seconds;
    std::printf("  (RT-level source at %.0fx would take %.1f %% of a "
                "%.2fx longer run)\n\n",
                slowdown, 100.0 * rtl_source / (rtl_source + chain_time),
                (rtl_source + chain_time) / stats.elapsed_seconds);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
