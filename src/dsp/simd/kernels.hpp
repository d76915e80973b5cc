// The vectorized kernel table behind the runtime-dispatch layer.
//
// Every entry is a hot inner loop from the scalar datapath or the
// daemon's IQ wire codec, restated as a free function over raw
// pointers so a tier (scalar / SSE2 / AVX2) can supply its own
// implementation. The contract for every non-scalar tier is
// *bit-reproducibility on finite inputs*: a kernel may reorder
// independent element lanes but must perform, per element, exactly the
// scalar sequence of IEEE-754 operations (no FMA fusion, no
// reassociated reductions). Reductions therefore vectorize across
// *outputs* (each lane accumulates its own output in scalar order),
// never across the reduction axis. Every kernel TU is compiled with
// -ffp-contract=off, so the compiler cannot fuse mul+add pairs either.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace ofdm::simd {

struct Kernels {
  /// Human-readable tier name ("scalar", "sse2", "avx2").
  const char* name;

  /// Split-radix fused first pass: gather the mixed digit-reversal
  /// permutation out[i] = in[perm[i]] and apply the trivial-twiddle
  /// base butterflies in the same sweep (this is what retires the old
  /// scalar bit-reversal scatter loop). `quads` lists the output
  /// offsets of 4-point DFT units — gathered input order (x0, x2, x1,
  /// x3) of the unit's sub-signal — and `pairs` the offsets of 2-point
  /// units. `inverse` flips the sign of the ±j rotation inside the
  /// 4-point units (a component swap + sign flip: exact, so forward
  /// and inverse stay bit-reproducible). in must not alias out.
  void (*fft_sr_gather)(const cplx* in, cplx* out,
                        const std::uint32_t* perm,
                        const std::uint32_t* quads, std::size_t n_quads,
                        const std::uint32_t* pairs, std::size_t n_pairs,
                        bool inverse);

  /// One split-radix combine level over every block offset in `offs`.
  /// A block of size 4*n4 at offset off holds U = d[off .. off+2*n4)
  /// (the half-size sub-DFT) and Z / Z' = the two quarter-size sub-DFTs
  /// at off+2*n4 / off+3*n4. Twiddles are laid out as two contiguous
  /// planes per level: tw[j] = W^j and tw[n4 + j] = W^{3j}, W =
  /// e^{-2πi/(4*n4)} (conjugated table for the inverse). Per j:
  ///   t1 = Z[j]*tw[j]; t3 = Z'[j]*tw[n4+j];
  ///   d[off+j]      = U[j] + (t1+t3);   d[off+2*n4+j] = U[j] - (t1+t3);
  ///   d[off+n4+j]   = U[n4+j] + r;      d[off+3*n4+j] = U[n4+j] - r;
  /// with r = ∓j*(t1-t3) (forward/inverse). The plan only emits levels
  /// of size >= 8, so n4 is always a power of two >= 2 (tiers may pair
  /// lanes without a tail loop).
  void (*fft_sr_combine)(cplx* d, const cplx* tw,
                         const std::uint32_t* offs, std::size_t n_offs,
                         std::size_t n4, bool inverse);

  /// The final combine level (single block covering the whole array,
  /// n4 = n/4) with the output scale folded into the four butterfly
  /// writes. Reads src, writes dst at the same indices; src == dst is
  /// the in-place case and src != dst lets an in-place *transform*
  /// finish out of its staging buffer without an extra copy pass.
  /// scale == 1.0 must skip the multiply entirely.
  void (*fft_sr_last)(const cplx* src, cplx* dst, const cplx* tw,
                      std::size_t n4, bool inverse, double scale);

  /// FIR with real taps over complex samples:
  ///   out[i] = sum_{t=0..n_taps-1} x[i + n_taps - 1 - t] * taps[t]
  /// accumulated in ascending t — the scalar delay-line order. `x` must
  /// hold n_out + n_taps - 1 samples (history first, chronological).
  /// out must not alias x.
  void (*fir_cr)(const cplx* x, const double* taps, std::size_t n_taps,
                 cplx* out, std::size_t n_out);

  /// Same window convolution with complex taps (multipath tapped delay
  /// lines).
  void (*fir_cc)(const cplx* x, const cplx* taps, std::size_t n_taps,
                 cplx* out, std::size_t n_out);

  /// out[i] = a[i] + b[i]. out may alias a or b exactly.
  void (*cvec_add)(const cplx* a, const cplx* b, cplx* out,
                   std::size_t n);

  /// out[i] = a[i] * b[i] (complex). out may alias a or b exactly.
  void (*cvec_mul)(const cplx* a, const cplx* b, cplx* out,
                   std::size_t n);

  /// out[i] = in[i] * s. out may alias in exactly.
  void (*cvec_scale)(const cplx* in, double s, cplx* out, std::size_t n);

  /// a[i] += b[i] over raw doubles (fading-channel phase advance).
  void (*rvec_add)(double* a, const double* b, std::size_t n);

  /// Constellation mapping: `bits` holds n_sym * bps unpacked bits (one
  /// per byte, MSB of each symbol first); out[j] = lut[index_j] where
  /// index_j folds the j-th group of bps bits MSB-first. bps in [1, 16];
  /// lut has 2^bps entries.
  void (*map_lut)(const std::uint8_t* bits, std::size_t n_sym,
                  std::size_t bps, const cplx* lut, cplx* out);

  /// Viterbi forward pass: `steps` add-compare-select steps in butterfly
  /// order over a trellis of `states` = 2^(K-1) states, 2 <= states <=
  /// 256. Next state ns has predecessors s0 = 2*(ns mod states/2) and
  /// s1 = s0 + 1; at step t, with b = bm + t * n_bm,
  ///   c0 = metric[s0] + b[branch[ns]];
  ///   c1 = metric[s1] + b[branch[states + ns]];
  ///   metric'[ns] = c1 < c0 ? c1 : c0;
  /// and bit ns % 64 of dec[t * words + ns / 64], words =
  /// ceil(states / 64), records (c1 < c0). Every decision word is
  /// written whole (unused high bits 0). `metric` carries the metrics in
  /// and holds those after the last step on return. Tiers vectorize
  /// across next states only: each lane does the scalar add, add,
  /// strict compare and select.
  void (*viterbi_acs)(double* metric, std::size_t states,
                      const std::uint32_t* branch, const double* bm,
                      std::size_t n_bm, std::size_t steps,
                      std::uint64_t* dec);

  /// IQ wire pack (RFC 4648 base64, the `data` of an `iq` event): `n`
  /// samples, n a multiple of 3, as the digits of their interleaved
  /// little-endian float32 (re,im) bytes, each component narrowed by
  /// static_cast<float>. Three samples are 24 bytes, exactly 32 digits
  /// and no padding. Reads exactly x[0..n), writes exactly
  /// out[0..n/3*32).
  void (*iq_pack)(const cplx* x, std::size_t n, char* out);

  /// IQ wire unpack, the inverse: `n_chars` digits, a multiple of 32, to
  /// n_chars/32*3 samples, each float32 widened by static_cast<double>.
  /// Returns true if any byte is outside the alphabet ('=' included);
  /// `out` is then written with meaningless values. Reads exactly
  /// in[0..n_chars), writes exactly out[0..n_chars/32*3).
  bool (*iq_unpack)(const char* in, std::size_t n_chars, cplx* out);
};

/// The scalar reference table (always available, every platform).
const Kernels& scalar_kernels();

#if defined(__x86_64__) || defined(_M_X64)
/// SSE2 baseline tier (always available on x86-64).
const Kernels& sse2_kernels();
/// AVX2 tier; only call through if the CPU reports AVX2.
const Kernels& avx2_kernels();
#endif

}  // namespace ofdm::simd
