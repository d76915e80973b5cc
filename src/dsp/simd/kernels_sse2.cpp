// SSE2 tier: one complex per 128-bit register, two independent
// accumulators in the FIR loops for ILP. Baseline x86-64 — always
// available, no CPUID gate needed.
//
// Bit-identity notes (versus the scalar tier):
//  - complex multiply uses the same two products per component; the
//    subtraction is emulated as x + (-y) via an XOR sign flip, which
//    IEEE-754 defines as exactly x - y;
//  - the imaginary component sums the same two products in swapped
//    operand order — FP addition is commutative, so bits match;
//  - FIR accumulation runs one output per lane in ascending-tap
//    (scalar delay-line) order; no cross-tap reassociation;
//  - the Viterbi ACS selects with and/andnot/or on the strict-less
//    mask, a bitwise copy of the scalar ternary.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {
namespace sse2 {

inline __m128d neg_lo_mask() {
  return _mm_castsi128_pd(
      _mm_set_epi64x(0, static_cast<long long>(0x8000000000000000ULL)));
}

/// [a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im]
inline __m128d cmul(__m128d a, __m128d b) {
  const __m128d b_re = _mm_shuffle_pd(b, b, 0x0);
  const __m128d b_im = _mm_shuffle_pd(b, b, 0x3);
  const __m128d a_swap = _mm_shuffle_pd(a, a, 0x1);
  const __m128d cross = _mm_xor_pd(_mm_mul_pd(a_swap, b_im),
                                   neg_lo_mask());
  return _mm_add_pd(_mm_mul_pd(a, b_re), cross);
}

inline __m128d load(const cplx* p) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(p));
}
inline void store(cplx* p, __m128d v) {
  _mm_storeu_pd(reinterpret_cast<double*>(p), v);
}

inline __m128d neg_hi_mask() {
  return _mm_castsi128_pd(
      _mm_set_epi64x(static_cast<long long>(0x8000000000000000ULL), 0));
}

// The split-radix ∓j legs are a component swap (shuffle 0x1) plus an
// XOR sign flip with jmask — both exact, matching scalar rot90
// bit-for-bit. jmask negates the imaginary lane forward (-j) and the
// real lane inverse (+j).

void fft_sr_gather(const cplx* in, cplx* out, const std::uint32_t* perm,
                   const std::uint32_t* quads, std::size_t n_quads,
                   const std::uint32_t* pairs, std::size_t n_pairs,
                   bool inverse) {
  const __m128d jmask = inverse ? neg_lo_mask() : neg_hi_mask();
  for (std::size_t q = 0; q < n_quads; ++q) {
    const std::size_t p = quads[q];
    const __m128d g0 = load(in + perm[p]);
    const __m128d g1 = load(in + perm[p + 1]);
    const __m128d g2 = load(in + perm[p + 2]);
    const __m128d g3 = load(in + perm[p + 3]);
    const __m128d e0 = _mm_add_pd(g0, g1);
    const __m128d e1 = _mm_sub_pd(g0, g1);
    const __m128d ts = _mm_add_pd(g2, g3);
    const __m128d tm = _mm_sub_pd(g2, g3);
    const __m128d td = _mm_xor_pd(_mm_shuffle_pd(tm, tm, 0x1), jmask);
    store(out + p, _mm_add_pd(e0, ts));
    store(out + p + 2, _mm_sub_pd(e0, ts));
    store(out + p + 1, _mm_add_pd(e1, td));
    store(out + p + 3, _mm_sub_pd(e1, td));
  }
  for (std::size_t r = 0; r < n_pairs; ++r) {
    const std::size_t p = pairs[r];
    const __m128d g0 = load(in + perm[p]);
    const __m128d g1 = load(in + perm[p + 1]);
    store(out + p, _mm_add_pd(g0, g1));
    store(out + p + 1, _mm_sub_pd(g0, g1));
  }
}

void fft_sr_combine(cplx* d, const cplx* tw, const std::uint32_t* offs,
                    std::size_t n_offs, std::size_t n4, bool inverse) {
  const __m128d jmask = inverse ? neg_lo_mask() : neg_hi_mask();
  for (std::size_t b = 0; b < n_offs; ++b) {
    cplx* const u0 = d + offs[b];
    cplx* const u1 = u0 + n4;
    cplx* const z = u0 + 2 * n4;
    cplx* const zp = u0 + 3 * n4;
    for (std::size_t j = 0; j < n4; ++j) {
      const __m128d t1 = cmul(load(z + j), load(tw + j));
      const __m128d t3 = cmul(load(zp + j), load(tw + n4 + j));
      const __m128d ts = _mm_add_pd(t1, t3);
      const __m128d tm = _mm_sub_pd(t1, t3);
      const __m128d td = _mm_xor_pd(_mm_shuffle_pd(tm, tm, 0x1), jmask);
      const __m128d a = load(u0 + j);
      const __m128d c = load(u1 + j);
      store(u0 + j, _mm_add_pd(a, ts));
      store(z + j, _mm_sub_pd(a, ts));
      store(u1 + j, _mm_add_pd(c, td));
      store(zp + j, _mm_sub_pd(c, td));
    }
  }
}

void fft_sr_last(const cplx* src, cplx* dst, const cplx* tw,
                 std::size_t n4, bool inverse, double scale) {
  const __m128d jmask = inverse ? neg_lo_mask() : neg_hi_mask();
  const cplx* const u0 = src;
  const cplx* const u1 = src + n4;
  const cplx* const z = src + 2 * n4;
  const cplx* const zp = src + 3 * n4;
  if (scale == 1.0) {
    for (std::size_t j = 0; j < n4; ++j) {
      const __m128d t1 = cmul(load(z + j), load(tw + j));
      const __m128d t3 = cmul(load(zp + j), load(tw + n4 + j));
      const __m128d ts = _mm_add_pd(t1, t3);
      const __m128d tm = _mm_sub_pd(t1, t3);
      const __m128d td = _mm_xor_pd(_mm_shuffle_pd(tm, tm, 0x1), jmask);
      const __m128d a = load(u0 + j);
      const __m128d c = load(u1 + j);
      store(dst + j, _mm_add_pd(a, ts));
      store(dst + 2 * n4 + j, _mm_sub_pd(a, ts));
      store(dst + n4 + j, _mm_add_pd(c, td));
      store(dst + 3 * n4 + j, _mm_sub_pd(c, td));
    }
    return;
  }
  const __m128d s = _mm_set1_pd(scale);
  for (std::size_t j = 0; j < n4; ++j) {
    const __m128d t1 = cmul(load(z + j), load(tw + j));
    const __m128d t3 = cmul(load(zp + j), load(tw + n4 + j));
    const __m128d ts = _mm_add_pd(t1, t3);
    const __m128d tm = _mm_sub_pd(t1, t3);
    const __m128d td = _mm_xor_pd(_mm_shuffle_pd(tm, tm, 0x1), jmask);
    const __m128d a = load(u0 + j);
    const __m128d c = load(u1 + j);
    store(dst + j, _mm_mul_pd(_mm_add_pd(a, ts), s));
    store(dst + 2 * n4 + j, _mm_mul_pd(_mm_sub_pd(a, ts), s));
    store(dst + n4 + j, _mm_mul_pd(_mm_add_pd(c, td), s));
    store(dst + 3 * n4 + j, _mm_mul_pd(_mm_sub_pd(c, td), s));
  }
}

void fir_cr(const cplx* x, const double* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 2 <= n_out; i += 2) {
    const cplx* w0 = x + i + n_taps - 1;
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m128d tap = _mm_set1_pd(taps[t]);
      const cplx* s = w0 - t;
      acc0 = _mm_add_pd(acc0, _mm_mul_pd(load(s), tap));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(load(s + 1), tap));
    }
    store(out + i, acc0);
    store(out + i + 1, acc1);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = _mm_add_pd(acc, _mm_mul_pd(load(w - t),
                                       _mm_set1_pd(taps[t])));
    }
    store(out + i, acc);
  }
}

void fir_cc(const cplx* x, const cplx* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 2 <= n_out; i += 2) {
    const cplx* w0 = x + i + n_taps - 1;
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m128d tap = load(taps + t);
      const cplx* s = w0 - t;
      acc0 = _mm_add_pd(acc0, cmul(load(s), tap));
      acc1 = _mm_add_pd(acc1, cmul(load(s + 1), tap));
    }
    store(out + i, acc0);
    store(out + i + 1, acc1);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = _mm_add_pd(acc, cmul(load(w - t), load(taps + t)));
    }
    store(out + i, acc);
  }
}

void cvec_add(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, _mm_add_pd(load(a + i), load(b + i)));
  }
}

void cvec_mul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, cmul(load(a + i), load(b + i)));
  }
}

void cvec_scale(const cplx* in, double s, cplx* out, std::size_t n) {
  const __m128d sv = _mm_set1_pd(s);
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, _mm_mul_pd(load(in + i), sv));
  }
}

void rvec_add(double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(a + i,
                  _mm_add_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

/// Two next states ns, ns+1 of one trellis half: m0/m1 hold the s0/s1
/// predecessor metrics, i0/i1 their branch-metric indices. Returns the
/// decision bits, lane k at bit k.
inline std::uint64_t acs2(__m128d m0, __m128d m1, const double* b,
                          const std::uint32_t* i0, const std::uint32_t* i1,
                          double* next) {
  const __m128d c0 = _mm_add_pd(m0, _mm_set_pd(b[i0[1]], b[i0[0]]));
  const __m128d c1 = _mm_add_pd(m1, _mm_set_pd(b[i1[1]], b[i1[0]]));
  const __m128d lt = _mm_cmplt_pd(c1, c0);
  _mm_storeu_pd(next, _mm_or_pd(_mm_and_pd(lt, c1), _mm_andnot_pd(lt, c0)));
  return static_cast<std::uint64_t>(_mm_movemask_pd(lt));
}

void viterbi_acs(double* metric, std::size_t states,
                 const std::uint32_t* branch, const double* bm,
                 std::size_t n_bm, std::size_t steps, std::uint64_t* dec) {
  const std::size_t half = states / 2;
  if (half < 2) {
    scalar_kernels().viterbi_acs(metric, states, branch, bm, n_bm, steps,
                                 dec);
    return;
  }
  const std::size_t words = (states + 63) / 64;
  const std::uint32_t* br1 = branch + states;
  double buf[256];
  double* cur = metric;
  double* next = buf;
  for (std::size_t t = 0; t < steps; ++t) {
    const double* b = bm + t * n_bm;
    std::uint64_t* d = dec + t * words;
    for (std::size_t w = 0; w < words; ++w) d[w] = 0;
    for (std::size_t j0 = 0; j0 < half; j0 += 64) {
      // Decision bits of ns = j0.. and ns = half + j0.. gather in
      // registers, one word store each per 64 states.
      const std::size_t j_end = std::min(half, j0 + 64);
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      for (std::size_t j = j0; j < j_end; j += 2) {
        // Predecessors 2j..2j+3, deinterleaved into s0 and s1 lanes;
        // both halves of the butterfly (ns = j, half + j) share them.
        const __m128d a = _mm_loadu_pd(cur + 2 * j);
        const __m128d c = _mm_loadu_pd(cur + 2 * j + 2);
        const __m128d m0 = _mm_unpacklo_pd(a, c);
        const __m128d m1 = _mm_unpackhi_pd(a, c);
        lo |= acs2(m0, m1, b, branch + j, br1 + j, next + j) << (j - j0);
        hi |= acs2(m0, m1, b, branch + half + j, br1 + half + j,
                   next + half + j)
              << (j - j0);
      }
      d[j0 / 64] |= lo;
      d[(half + j0) / 64] |= hi << ((half + j0) % 64);
    }
    std::swap(cur, next);
  }
  if (cur != metric) {
    for (std::size_t s = 0; s < states; ++s) metric[s] = cur[s];
  }
}

}  // namespace sse2

const Kernels& sse2_kernels() {
  static const Kernels table = {
      "sse2",
      sse2::fft_sr_gather,
      sse2::fft_sr_combine,
      sse2::fft_sr_last,
      sse2::fir_cr,
      sse2::fir_cc,
      sse2::cvec_add,
      sse2::cvec_mul,
      sse2::cvec_scale,
      sse2::rvec_add,
      scalar_kernels().map_lut,
      sse2::viterbi_acs,
      // No 128-bit IQ codec: the scalar one serves until an SSE2
      // version wins end to end.
      scalar_kernels().iq_pack,
      scalar_kernels().iq_unpack,
  };
  return table;
}

}  // namespace ofdm::simd

#endif  // x86-64
