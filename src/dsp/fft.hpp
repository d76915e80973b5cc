// Plan-based fast Fourier transform engine.
//
// Execution paths:
//
//  * power-of-two sizes  -> split-radix DIT butterflies (2 complex
//    multiplies per 4 outputs) over the SIMD kernel table, with the
//    mixed digit-reversal permutation fused into a vectorized
//    first-stage gather pass (no scalar scatter loop). Sizes 1, 2 and
//    4 are that gather pass alone: its exact ±1/±j base units are the
//    whole transform.
//  * any other size      -> Bluestein's chirp-z algorithm, needed
//    because the DRM robustness modes use non-power-of-two symbol
//    lengths (1152, 704, 448 samples at the 48 kHz master rate). Its
//    inner power-of-two convolution FFT goes through the same plans.
//
// Plan kinds: the complex transform above, plus two first-class
// half-size kinds for the real-signal standards — forward_real()
// (real-input forward at N/2 cost) and inverse_hermitian()
// (Hermitian-input inverse at N/2 cost, the DMT TX path).
//
// Conventions: forward() computes X[k] = sum_n x[n] e^{-j2πkn/N} (no
// scaling); inverse() includes the 1/N factor so inverse(forward(x)) == x.
//
// The immutable tables behind a plan (twiddle planes, digit-reversal
// permutation, Bluestein chirp/kernels) live in a process-wide
// thread-safe cache keyed by (size, kind): every Modulator,
// receiver, spectrum estimate, LinkRunner worker and Bluestein inner
// transform of the same size shares one table set instead of
// rebuilding it. Plans own only their mutable scratch, so executing a
// transform performs no heap allocation in steady state — but a single
// plan must still not be executed from two threads concurrently; give
// each worker its own (now table-sharing, so genuinely cheap) plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace ofdm::dsp {

/// Observability hooks for the process-wide plan-table cache.
struct FftCacheStats {
  std::uint64_t hits = 0;    ///< acquisitions served from the cache
  std::uint64_t misses = 0;  ///< acquisitions that built fresh tables
  std::size_t entries = 0;   ///< table sets currently cached
};
FftCacheStats fft_plan_cache_stats();

/// Drop every cached table set (outstanding plans keep theirs alive
/// via shared ownership) and reset the hit/miss counters. Test hook.
void fft_plan_cache_clear();

/// A transform plan for a fixed size N. Construct once per symbol size
/// and reuse; execution is allocation-free after the first call of
/// each kind. Table construction is cached process-wide, so repeated
/// construction at the same size is cheap.
class Fft {
 public:
  /// Build a plan for size n. Throws ConfigError for n == 0.
  explicit Fft(std::size_t n);
  ~Fft();

  Fft(Fft&&) noexcept;
  Fft& operator=(Fft&&) noexcept;
  Fft(const Fft&) = delete;
  Fft& operator=(const Fft&) = delete;

  std::size_t size() const;

  /// True if this plan runs the power-of-two split-radix path rather
  /// than Bluestein.
  bool is_pow2() const;

  /// Forward DFT. in.size() == out.size() == size(). In-place allowed.
  void forward(std::span<const cplx> in, std::span<cplx> out) const;

  /// Forward DFT of a real signal carried in the real parts of `in`
  /// (imaginary parts are ignored). For even N this packs the signal
  /// into an N/2-point complex FFT (~2x faster) and writes the full
  /// Hermitian-symmetric N-bin spectrum; odd N falls back to the
  /// general forward path. In-place allowed.
  void forward_real(std::span<const cplx> in, std::span<cplx> out) const;

  /// Inverse DFT with 1/N scaling, times an optional extra amplitude
  /// factor fused into the transform's own output pass (no separate
  /// sweep over the buffer). In-place allowed.
  void inverse(std::span<const cplx> in, std::span<cplx> out,
               double scale = 1.0) const;

  /// Inverse DFT of a Hermitian-symmetric spectrum (X[N-k] == conj(X[k]),
  /// real X[0] and X[N/2]) — the DMT/powerline real-output case. For even
  /// N this runs one N/2-point complex IFFT instead of an N-point one
  /// (~2x faster) and writes an exactly-real result (imaginary parts are
  /// 0.0 by construction). Odd N falls back to the general inverse. The
  /// input must actually be Hermitian; the fast path silently discards
  /// any non-Hermitian component. In-place allowed.
  void inverse_hermitian(std::span<const cplx> in, std::span<cplx> out,
                         double scale = 1.0) const;

  /// Convenience allocating overloads.
  cvec forward(std::span<const cplx> in) const;
  cvec inverse(std::span<const cplx> in) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// O(N^2) reference DFT used by the unit tests as ground truth.
cvec reference_dft(std::span<const cplx> x, bool inverse = false);

/// Swap the two halves of a spectrum so that DC ends up in the middle
/// (odd lengths put DC at index (N-1)/2 after the shift, matching the
/// usual fftshift definition).
cvec fftshift(std::span<const cplx> x);

/// Inverse of fftshift.
cvec ifftshift(std::span<const cplx> x);

}  // namespace ofdm::dsp
