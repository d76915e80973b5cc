// Per-block throughput attribution over the whole standard family.
//
// For each of the ten standards this drives a Submodel source through a
// representative RF impairment chain with probes attached, then emits
// the obs::Report for the run: per-block throughput (Msps), share of
// wall time, peak magnitude and clip counts. bench/regress.py --blocks
// consumes the JSON to attribute an E5-level throughput regression to a
// specific block instead of a whole benchmark.
//
// Usage:
//   bench_report_blocks [--samples N] [--chunk N] [--out FILE] [--quiet]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/simd/dispatch.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace {

using namespace ofdm;

/// The reference impairment line-up used for attribution: one of each
/// block family that shows up in the paper's RF system experiments.
void build_chain(rf::Chain& chain) {
  chain.add<rf::Gain>(-3.0);
  chain.add<rf::IqImbalance>(0.3, 1.5);
  chain.add<rf::PhaseNoise>(40.0, 20e6, 12345);
  chain.add<rf::RappPa>(2.0, 1.0);
  chain.add<rf::MultipathChannel>(rf::exponential_pdp_taps(2.0, 8, 77));
  chain.add<rf::AwgnChannel>(1e-3, 99);
  chain.add<rf::PowerMeter>();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Msamples/s of `body` (which must process `chunk` samples per call),
/// timed for ~0.2 s after one warm-up call.
template <typename Body>
double measure_msps(std::size_t chunk, Body&& body) {
  body();  // warm-up: buffer growth, plan setup
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  std::size_t samples = 0;
  while (elapsed < 0.2) {
    body();
    samples += chunk;
    elapsed = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  }
  return static_cast<double>(samples) / elapsed / 1e6;
}

/// Scalar-vs-best-tier speedups for the vectorized kernels, as the
/// "kernels" JSON section regress.py gates on. Runs each kernel under
/// simd::force_tier(scalar) then under the host's best tier.
std::string kernel_section(bool quiet) {
  const simd::Tier best = simd::best_supported_tier();
  const std::string tier = simd::tier_name(best);
  constexpr std::size_t kChunk = 4096;

  struct Entry {
    const char* name;
    double scalar_msps = 0.0;
    double simd_msps = 0.0;
  };
  Entry entries[] = {
      {"fft512"}, {"fir64"}, {"tdl9"}, {"cvec_mul"}, {"noise"}};

  for (int pass = 0; pass < 2; ++pass) {
    simd::force_tier(pass == 0 ? simd::Tier::kScalar : best);
    double* slot[5];
    for (int e = 0; e < 5; ++e) {
      slot[e] =
          pass == 0 ? &entries[e].scalar_msps : &entries[e].simd_msps;
    }
    {
      dsp::Fft fft(512);
      Rng rng(7);
      cvec buf(512);
      rng.complex_gaussian_fill(buf);
      *slot[0] = measure_msps(2 * buf.size(), [&] {
        fft.forward(buf, buf);
        fft.inverse(buf, buf);
      });
    }
    {
      dsp::FirFilter fir(dsp::design_lowpass(0.2, 64));
      Rng rng(8);
      cvec in(kChunk), out(kChunk);
      rng.complex_gaussian_fill(in);
      *slot[1] = measure_msps(kChunk, [&] { fir.process(in, out); });
    }
    {
      constexpr std::size_t kTaps = 9;
      Rng rng(11);
      cvec taps(kTaps), x(kChunk + kTaps - 1), out(kChunk);
      rng.complex_gaussian_fill(taps);
      rng.complex_gaussian_fill(x);
      *slot[2] = measure_msps(kChunk, [&] {
        simd::kernels().fir_cc(x.data(), taps.data(), kTaps, out.data(),
                               out.size());
      });
    }
    {
      Rng rng(9);
      cvec a(kChunk), b(kChunk), out(kChunk);
      rng.complex_gaussian_fill(a);
      rng.complex_gaussian_fill(b);
      *slot[3] = measure_msps(kChunk, [&] {
        simd::kernels().cvec_mul(a.data(), b.data(), out.data(),
                                 out.size());
      });
    }
    {
      Rng rng(10);
      cvec buf(kChunk);
      *slot[4] = measure_msps(kChunk,
                              [&] { rng.complex_gaussian_fill(buf, 0.5); });
    }
  }
  simd::force_tier(best);

  std::ostringstream json;
  json.setf(std::ios::fixed);
  json.precision(3);
  json << " \"kernels\": {\n  \"tier\": \"" << tier
       << "\",\n  \"entries\": [\n";
  if (!quiet) {
    std::printf("=== kernels: scalar vs %s ===\n%-12s %12s %12s %9s\n",
                tier.c_str(), "kernel", "scalar_Msps", "simd_Msps",
                "speedup");
  }
  bool first = true;
  for (const Entry& e : entries) {
    const double speedup =
        e.scalar_msps > 0.0 ? e.simd_msps / e.scalar_msps : 0.0;
    if (!quiet) {
      std::printf("%-12s %12.2f %12.2f %8.2fx\n", e.name, e.scalar_msps,
                  e.simd_msps, speedup);
    }
    if (!first) json << ",\n";
    json << "   {\"name\": \"" << e.name
         << "\", \"scalar_msps\": " << e.scalar_msps
         << ", \"simd_msps\": " << e.simd_msps
         << ", \"speedup\": " << speedup << "}";
    first = false;
  }
  json << "\n  ]\n }";
  if (!quiet) std::printf("\n");
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total = 1u << 20;
  std::size_t chunk = 4096;
  std::string out_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--samples") {
      total = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--chunk") {
      chunk = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "usage: bench_report_blocks [--samples N] [--chunk N]"
                   " [--out FILE] [--quiet]\n";
      return 2;
    }
  }

  std::ostringstream json;
  json << "{\n \"samples_per_standard\": " << total << ",\n"
       << kernel_section(quiet) << ",\n"
       << " \"standards\": {\n";
  bool first = true;
  for (const core::Standard standard : core::kStandardFamily) {
    rf::Submodel source(core::profile_for(standard));
    rf::Chain chain;
    build_chain(chain);

    obs::ProbeSet probes;
    chain.attach_probes(probes);
    source.set_probe(&probes.add(source.name()));

    // Warm-up pass so buffer growth does not pollute the timings, then
    // the measured run.
    rf::run(source, chain, 4 * chunk, chunk);
    probes.reset();
    const rf::RunStats stats = rf::run(source, chain, total, chunk);

    const obs::Report report =
        obs::Report::from(probes, stats.elapsed_seconds);
    if (!quiet) {
      std::cout << "=== " << core::standard_name(standard) << " ===\n"
                << report.table() << "\n";
    }
    if (!first) json << ",\n";
    json << "  \"" << json_escape(core::standard_name(standard))
         << "\": " << report.to_json();
    first = false;
  }

  // Channel-model library attribution: one representative of each
  // family (Watterson two-path, static TDL, flat Rician, oscillator
  // drift) behind an 802.11a Submodel at the standard's 20 MS/s. Block
  // names are distinct, so regress.py gates rows like
  // "channels/watterson" against the baseline.
  {
    rf::Submodel source(core::profile_for(core::Standard::kWlan80211a));
    rf::Chain chain;
    rf::channels::MakeOptions ch_opts;
    ch_opts.sample_rate = 20e6;
    ch_opts.seed = 505;
    chain.add_ptr(rf::channels::make_preset("ccir_poor", ch_opts));
    chain.add_ptr(rf::channels::make_preset("itu_veh_a", ch_opts));
    chain.add_ptr(rf::channels::make_preset("rician_k10", ch_opts));
    chain.add_ptr(rf::channels::make_preset("cfo_drift", ch_opts));
    chain.add<rf::PowerMeter>();

    obs::ProbeSet probes;
    chain.attach_probes(probes);
    source.set_probe(&probes.add(source.name()));

    rf::run(source, chain, 4 * chunk, chunk);
    probes.reset();
    const rf::RunStats stats = rf::run(source, chain, total, chunk);

    const obs::Report report =
        obs::Report::from(probes, stats.elapsed_seconds);
    if (!quiet) {
      std::cout << "=== channels ===\n" << report.table() << "\n";
    }
    json << ",\n  \"channels\": " << report.to_json();
  }
  json << "\n }\n}\n";

  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    f << json.str();
    if (!quiet) std::cout << "wrote " << out_path << "\n";
  } else if (quiet) {
    std::cout << json.str();
  }
  return 0;
}
