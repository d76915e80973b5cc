// Experiment E5 — signal-source usability (§3):
//   "it works as a digital signal source for the RF designer"
//
// A usable source must generate samples comfortably faster than the RF
// simulator consumes them. This bench measures generation throughput
// (Msamples/s of baseband output) for every family member, plus the
// real-time margin against each standard's own sample rate.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/simd/dispatch.hpp"

namespace {

using namespace ofdm;

core::OfdmParams bench_params(core::Standard s) {
  core::OfdmParams p = core::profile_for(s);
  if (p.frame.symbols_per_frame > 16) p.frame.symbols_per_frame = 16;
  return p;
}

void BM_Generate(benchmark::State& state) {
  const auto standard = static_cast<core::Standard>(state.range(0));
  const core::OfdmParams params = bench_params(standard);
  core::Transmitter tx(params);
  Rng rng(5);
  const bitvec payload = rng.bits(
      std::min<std::size_t>(tx.recommended_payload_bits(), 20000));

  std::size_t samples = 0;
  for (auto _ : state) {
    auto burst = tx.modulate(payload);
    benchmark::DoNotOptimize(burst.samples.data());
    samples += burst.samples.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
  state.SetLabel(core::standard_name(standard));
}

// --- Kernel micro-benches: scalar tier vs the host's best SIMD tier.
//
// Each pair runs the same hot kernel through simd::force_tier, so
// regress.py can gate the dispatch layer's machine-relative speedup
// (kernel_*/scalar vs kernel_*/<tier>). items_per_second counts
// baseband samples through the kernel, same unit as BM_Generate.

constexpr std::size_t kKernelChunk = 4096;

void set_tier(benchmark::State& state, simd::Tier tier) {
  const simd::Tier got = simd::force_tier(tier);
  state.SetLabel(simd::tier_name(got));
}

void BM_KernelFft512(benchmark::State& state, simd::Tier tier) {
  set_tier(state, tier);
  dsp::Fft fft(512);
  Rng rng(7);
  cvec buf(512);
  rng.complex_gaussian_fill(buf);
  for (auto _ : state) {
    fft.forward(buf, buf);
    fft.inverse(buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * buf.size() * 2));
}

// --- FFT size sweep at the host's best tier, across the family's
// power-of-two symbol sizes plus two Bluestein (DRM) sizes. Rows are
// named kernel_fft<N>/splitradix; regress.py gates each against its
// own baseline row.

void BM_KernelFftSize(benchmark::State& state, std::size_t n) {
  set_tier(state, simd::best_supported_tier());
  dsp::Fft fft(n);
  Rng rng(7);
  cvec buf(n);
  rng.complex_gaussian_fill(buf);
  for (auto _ : state) {
    fft.forward(buf, buf);
    fft.inverse(buf, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * buf.size() * 2));
  state.SetLabel("splitradix");
}

// --- Plan-acquisition attribution: cold (tables rebuilt from nothing)
// vs cached (shared out of the process-wide plan cache). The gap is
// what every Modulator / receiver / LinkRunner worker construction
// saves after the first plan of a size. items = plans built.

void BM_FftPlanBuild(benchmark::State& state, std::size_t n, bool cold) {
  const dsp::Fft primer(n);  // cached variant: guarantee a warm entry
  for (auto _ : state) {
    if (cold) dsp::fft_plan_cache_clear();
    const dsp::Fft fft(n);
    benchmark::DoNotOptimize(&fft);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(cold ? "cold" : "cached");
}

void BM_KernelFir64(benchmark::State& state, simd::Tier tier) {
  set_tier(state, tier);
  dsp::FirFilter fir(dsp::design_lowpass(0.2, 64));
  Rng rng(8);
  cvec in(kKernelChunk), out(kKernelChunk);
  rng.complex_gaussian_fill(in);
  for (auto _ : state) {
    fir.process(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * in.size()));
}

void BM_KernelTdl9(benchmark::State& state, simd::Tier tier) {
  // Complex-tap tapped delay line (fir_cc): the multipath-channel
  // kernel, distinct from the real-tap FIR.
  set_tier(state, tier);
  constexpr std::size_t kTaps = 9;
  Rng rng(11);
  cvec taps(kTaps), x(kKernelChunk + kTaps - 1), out(kKernelChunk);
  rng.complex_gaussian_fill(taps);
  rng.complex_gaussian_fill(x);
  for (auto _ : state) {
    simd::kernels().fir_cc(x.data(), taps.data(), kTaps, out.data(),
                           out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * out.size()));
}

void BM_KernelCvecMul(benchmark::State& state, simd::Tier tier) {
  set_tier(state, tier);
  Rng rng(9);
  cvec a(kKernelChunk), b(kKernelChunk), out(kKernelChunk);
  rng.complex_gaussian_fill(a);
  rng.complex_gaussian_fill(b);
  for (auto _ : state) {
    simd::kernels().cvec_mul(a.data(), b.data(), out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * out.size()));
}

void BM_KernelNoise(benchmark::State& state, simd::Tier tier) {
  set_tier(state, tier);
  Rng rng(10);
  cvec buf(kKernelChunk);
  for (auto _ : state) {
    rng.complex_gaussian_fill(buf, 0.5);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * buf.size()));
}

void register_kernel_benches() {
  using Fn = void (*)(benchmark::State&, simd::Tier);
  struct Entry {
    const char* name;
    Fn fn;
  };
  const Entry kernels[] = {
      {"kernel_fft512", BM_KernelFft512},
      {"kernel_fir64", BM_KernelFir64},
      {"kernel_tdl9", BM_KernelTdl9},
      {"kernel_cvec_mul", BM_KernelCvecMul},
      {"kernel_noise", BM_KernelNoise},
  };
  const simd::Tier best = simd::best_supported_tier();
  for (const Entry& k : kernels) {
    benchmark::RegisterBenchmark((std::string(k.name) + "/scalar").c_str(),
                                 k.fn, simd::Tier::kScalar)
        ->Unit(benchmark::kMicrosecond);
    if (best != simd::Tier::kScalar) {
      benchmark::RegisterBenchmark(
          (std::string(k.name) + "/" + simd::tier_name(best)).c_str(),
          k.fn, best)
          ->Unit(benchmark::kMicrosecond);
    }
  }

  // FFT size sweep: every pow2 symbol size class plus the two largest
  // DRM Bluestein sizes.
  const std::size_t fft_sizes[] = {64, 256, 512, 2048, 8192, 448, 1152};
  for (const std::size_t n : fft_sizes) {
    benchmark::RegisterBenchmark(
        ("kernel_fft" + std::to_string(n) + "/splitradix").c_str(),
        BM_KernelFftSize, n)
        ->Unit(benchmark::kMicrosecond);
  }

  // Plan-acquisition cost, cold vs cached (one pow2, one Bluestein).
  for (const std::size_t n : {std::size_t{512}, std::size_t{1152}}) {
    for (const bool cold : {true, false}) {
      benchmark::RegisterBenchmark(
          ("fft_plan" + std::to_string(n) + (cold ? "/cold" : "/cached"))
              .c_str(),
          BM_FftPlanBuild, n, cold)
          ->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== E5: Mother Model generation throughput per standard "
              "(paper §3) ===\n\n");
  std::printf("items_per_second = baseband samples generated per second; "
              "compare\nagainst each standard's own sample rate for the "
              "real-time margin.\n\n");

  for (core::Standard s : core::kStandardFamily) {
    benchmark::RegisterBenchmark("BM_Generate", BM_Generate)
        ->Arg(static_cast<int>(s))
        ->Unit(benchmark::kMillisecond);
  }
  register_kernel_benches();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  simd::force_tier(simd::best_supported_tier());

  // Real-time margin summary (single-shot measurement).
  std::printf("\n%-20s %-14s %-14s %s\n", "standard", "gen_MS/s",
              "fs_MS/s", "x realtime");
  for (core::Standard s : core::kStandardFamily) {
    const core::OfdmParams params = bench_params(s);
    core::Transmitter tx(params);
    Rng rng(6);
    const bitvec payload = rng.bits(
        std::min<std::size_t>(tx.recommended_payload_bits(), 20000));
    std::size_t samples = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.2) {
      samples += tx.modulate(payload).samples.size();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    }
    const double rate = static_cast<double>(samples) / elapsed;
    std::printf("%-20s %-14.1f %-14.3f %.1f\n",
                core::standard_name(s).c_str(), rate / 1e6,
                params.sample_rate / 1e6, rate / params.sample_rate);
  }
  return 0;
}
