// Ablation — why the Mother Model carries a dual-path FFT.
//
// DESIGN.md calls out the FFT design choice: split-radix for the
// power-of-two family members, Bluestein for DRM's 1152/704/448-point
// symbols, and an O(N^2) reference DFT for verification only. This
// bench quantifies the gap between the three, justifying both the
// existence of the Bluestein path (a reference DFT would be unusably
// slow) and its restriction to non-power-of-two sizes (split-radix
// is several times faster where it applies).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "common/math_util.hpp"
#include "dsp/fft.hpp"

namespace {

using namespace ofdm;

cvec random_signal(std::size_t n) {
  Rng rng(n);
  cvec x(n);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  return x;
}

void BM_FftPlanned(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::Fft fft(n);
  const cvec x = random_signal(n);
  cvec out(n);
  for (auto _ : state) {
    fft.forward(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(fft.is_pow2() ? "split-radix" : "bluestein");
}
// Power-of-two member sizes vs the DRM sizes right next to them.
BENCHMARK(BM_FftPlanned)
    ->Arg(64)      // 802.11a/g
    ->Arg(256)     // 802.16a / HomePlug
    ->Arg(448)     // DRM mode D  (Bluestein)
    ->Arg(512)     // ADSL
    ->Arg(704)     // DRM mode C  (Bluestein)
    ->Arg(1024)    // DRM mode B / ADSL2+
    ->Arg(1152)    // DRM mode A  (Bluestein)
    ->Arg(2048)    // DAB I / DVB-T 2k
    ->Arg(8192);   // VDSL / DVB-T 8k

void BM_ReferenceDft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cvec x = random_signal(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::reference_dft(x).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel("reference-N^2");
}
BENCHMARK(BM_ReferenceDft)->Arg(64)->Arg(448)->Arg(1152);

void BM_PlanConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dsp::Fft fft(n);
    benchmark::DoNotOptimize(&fft);
  }
  state.SetLabel(is_pow2(n) ? "split-radix" : "bluestein");
}
BENCHMARK(BM_PlanConstruction)->Arg(1024)->Arg(1152);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation: FFT execution paths (DESIGN.md S2) ===\n\n");
  std::printf("split-radix serves the nine power-of-two members; Bluestein "
              "exists only\nbecause DRM's robustness modes need "
              "448/704/1152-point transforms.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
