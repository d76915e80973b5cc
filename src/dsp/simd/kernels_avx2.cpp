// AVX2 tier: two complexes per 256-bit register. This TU is the only
// one compiled with -mavx2; it is reached only after dispatch.cpp
// confirms the CPU reports AVX2.
//
// Bit-identity notes (versus the scalar tier):
//  - complex multiply is the movedup/permute/addsub idiom: per lane it
//    computes the same two products and the same add/sub as scalar
//    (vaddsubpd's subtract lane is a true IEEE subtraction, and the
//    imaginary lane's sum commutes);
//  - FIR lanes each own one output and accumulate taps in ascending
//    (scalar delay-line) order — adjacent outputs read adjacent window
//    samples, so one unaligned load feeds two lanes;
//  - compiled with -ffp-contract=off so the compiler cannot fuse the
//    mul/add pairs behind our back.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {
namespace avx2 {

/// Per lane pair: [a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im]
inline __m256d cmul(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_movedup_pd(b);
  const __m256d b_im = _mm256_permute_pd(b, 0xF);
  const __m256d a_swap = _mm256_permute_pd(a, 0x5);
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re),
                          _mm256_mul_pd(a_swap, b_im));
}

inline __m256d load2(const cplx* p) {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}
inline void store2(cplx* p, __m256d v) {
  _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
}
inline __m128d load1(const cplx* p) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(p));
}
inline void store1(cplx* p, __m128d v) {
  _mm_storeu_pd(reinterpret_cast<double*>(p), v);
}

// The split-radix ∓j legs are a component swap plus an XOR sign flip
// — both exact, matching the scalar rot90 bit-for-bit. The masks
// negate the imaginary lane(s) forward (-j) and the real lane(s)
// inverse (+j).
inline __m128d jmask1(bool inverse) {
  const long long s = static_cast<long long>(0x8000000000000000ULL);
  return _mm_castsi128_pd(inverse ? _mm_set_epi64x(0, s)
                                  : _mm_set_epi64x(s, 0));
}
inline __m256d jmask2(bool inverse) {
  const long long s = static_cast<long long>(0x8000000000000000ULL);
  return _mm256_castsi256_pd(inverse ? _mm256_set_epi64x(0, s, 0, s)
                                     : _mm256_set_epi64x(s, 0, s, 0));
}

void fft_sr_gather(const cplx* in, cplx* out, const std::uint32_t* perm,
                   const std::uint32_t* quads, std::size_t n_quads,
                   const std::uint32_t* pairs, std::size_t n_pairs,
                   bool inverse) {
  const __m128d jm = jmask1(inverse);
  for (std::size_t q = 0; q < n_quads; ++q) {
    const std::size_t p = quads[q];
    const __m128d g0 = load1(in + perm[p]);
    const __m128d g1 = load1(in + perm[p + 1]);
    const __m128d g2 = load1(in + perm[p + 2]);
    const __m128d g3 = load1(in + perm[p + 3]);
    const __m128d e0 = _mm_add_pd(g0, g1);
    const __m128d e1 = _mm_sub_pd(g0, g1);
    const __m128d ts = _mm_add_pd(g2, g3);
    const __m128d tm = _mm_sub_pd(g2, g3);
    const __m128d td = _mm_xor_pd(_mm_shuffle_pd(tm, tm, 0x1), jm);
    store1(out + p, _mm_add_pd(e0, ts));
    store1(out + p + 2, _mm_sub_pd(e0, ts));
    store1(out + p + 1, _mm_add_pd(e1, td));
    store1(out + p + 3, _mm_sub_pd(e1, td));
  }
  for (std::size_t r = 0; r < n_pairs; ++r) {
    const std::size_t p = pairs[r];
    const __m128d g0 = load1(in + perm[p]);
    const __m128d g1 = load1(in + perm[p + 1]);
    store1(out + p, _mm_add_pd(g0, g1));
    store1(out + p + 1, _mm_sub_pd(g0, g1));
  }
}

/// Two split-radix butterflies per iteration; the planar twiddle
/// layout (all W^j, then all W^{3j}) keeps both loads contiguous.
inline void sr_block2(cplx* u0, cplx* u1, cplx* z, cplx* zp,
                      const cplx* tw, std::size_t n4, __m256d jm) {
  for (std::size_t j = 0; j + 2 <= n4; j += 2) {
    const __m256d t1 = cmul(load2(z + j), load2(tw + j));
    const __m256d t3 = cmul(load2(zp + j), load2(tw + n4 + j));
    const __m256d ts = _mm256_add_pd(t1, t3);
    const __m256d tm = _mm256_sub_pd(t1, t3);
    const __m256d td = _mm256_xor_pd(_mm256_permute_pd(tm, 0x5), jm);
    const __m256d a = load2(u0 + j);
    const __m256d c = load2(u1 + j);
    store2(u0 + j, _mm256_add_pd(a, ts));
    store2(z + j, _mm256_sub_pd(a, ts));
    store2(u1 + j, _mm256_add_pd(c, td));
    store2(zp + j, _mm256_sub_pd(c, td));
  }
}

void fft_sr_combine(cplx* d, const cplx* tw, const std::uint32_t* offs,
                    std::size_t n_offs, std::size_t n4, bool inverse) {
  // The plan only emits levels of size >= 8, so n4 is a power of two
  // >= 2 and the paired loop needs no tail.
  const __m256d jm = jmask2(inverse);
  if (n4 == 2) {
    // The size-8 level holds n/8 blocks — by far the most of any level
    // — and its whole twiddle table is two registers. Hoist the loads
    // out of the block loop (the compiler can't: the block stores may
    // alias `tw` as far as it knows). Same per-element op sequence as
    // sr_block2, so bit-identity holds.
    const __m256d w1 = load2(tw);
    const __m256d w3 = load2(tw + 2);
    for (std::size_t b = 0; b < n_offs; ++b) {
      cplx* const u0 = d + offs[b];
      const __m256d t1 = cmul(load2(u0 + 4), w1);
      const __m256d t3 = cmul(load2(u0 + 6), w3);
      const __m256d ts = _mm256_add_pd(t1, t3);
      const __m256d tm = _mm256_sub_pd(t1, t3);
      const __m256d td = _mm256_xor_pd(_mm256_permute_pd(tm, 0x5), jm);
      const __m256d a = load2(u0);
      const __m256d c = load2(u0 + 2);
      store2(u0, _mm256_add_pd(a, ts));
      store2(u0 + 4, _mm256_sub_pd(a, ts));
      store2(u0 + 2, _mm256_add_pd(c, td));
      store2(u0 + 6, _mm256_sub_pd(c, td));
    }
    return;
  }
  for (std::size_t b = 0; b < n_offs; ++b) {
    cplx* const u0 = d + offs[b];
    sr_block2(u0, u0 + n4, u0 + 2 * n4, u0 + 3 * n4, tw, n4, jm);
  }
}

void fft_sr_last(const cplx* src, cplx* dst, const cplx* tw,
                 std::size_t n4, bool inverse, double scale) {
  const __m256d jm = jmask2(inverse);
  const cplx* const u0 = src;
  const cplx* const u1 = src + n4;
  const cplx* const z = src + 2 * n4;
  const cplx* const zp = src + 3 * n4;
  if (scale == 1.0) {
    for (std::size_t j = 0; j + 2 <= n4; j += 2) {
      const __m256d t1 = cmul(load2(z + j), load2(tw + j));
      const __m256d t3 = cmul(load2(zp + j), load2(tw + n4 + j));
      const __m256d ts = _mm256_add_pd(t1, t3);
      const __m256d tm = _mm256_sub_pd(t1, t3);
      const __m256d td = _mm256_xor_pd(_mm256_permute_pd(tm, 0x5), jm);
      const __m256d a = load2(u0 + j);
      const __m256d c = load2(u1 + j);
      store2(dst + j, _mm256_add_pd(a, ts));
      store2(dst + 2 * n4 + j, _mm256_sub_pd(a, ts));
      store2(dst + n4 + j, _mm256_add_pd(c, td));
      store2(dst + 3 * n4 + j, _mm256_sub_pd(c, td));
    }
    return;
  }
  const __m256d s = _mm256_set1_pd(scale);
  for (std::size_t j = 0; j + 2 <= n4; j += 2) {
    const __m256d t1 = cmul(load2(z + j), load2(tw + j));
    const __m256d t3 = cmul(load2(zp + j), load2(tw + n4 + j));
    const __m256d ts = _mm256_add_pd(t1, t3);
    const __m256d tm = _mm256_sub_pd(t1, t3);
    const __m256d td = _mm256_xor_pd(_mm256_permute_pd(tm, 0x5), jm);
    const __m256d a = load2(u0 + j);
    const __m256d c = load2(u1 + j);
    store2(dst + j, _mm256_mul_pd(_mm256_add_pd(a, ts), s));
    store2(dst + 2 * n4 + j, _mm256_mul_pd(_mm256_sub_pd(a, ts), s));
    store2(dst + n4 + j, _mm256_mul_pd(_mm256_add_pd(c, td), s));
    store2(dst + 3 * n4 + j, _mm256_mul_pd(_mm256_sub_pd(c, td), s));
  }
}

void fir_cr(const cplx* x, const double* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  // Four outputs per iteration: two 256-bit accumulators, each lane
  // pair owning one output's (re, im).
  for (; i + 4 <= n_out; i += 4) {
    const cplx* w0 = x + i + n_taps - 1;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m256d tap = _mm256_set1_pd(taps[t]);
      const cplx* s = w0 - t;
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(load2(s), tap));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(load2(s + 2), tap));
    }
    store2(out + i, acc0);
    store2(out + i + 2, acc1);
  }
  for (; i + 2 <= n_out; i += 2) {
    const cplx* w0 = x + i + n_taps - 1;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(load2(w0 - t), _mm256_set1_pd(taps[t])));
    }
    store2(out + i, acc);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = _mm_add_pd(acc,
                       _mm_mul_pd(load1(w - t), _mm_set1_pd(taps[t])));
    }
    store1(out + i, acc);
  }
}

void fir_cc(const cplx* x, const cplx* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 4 <= n_out; i += 4) {
    const cplx* w0 = x + i + n_taps - 1;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m256d tap = _mm256_broadcast_pd(
          reinterpret_cast<const __m128d*>(taps + t));
      const cplx* s = w0 - t;
      acc0 = _mm256_add_pd(acc0, cmul(load2(s), tap));
      acc1 = _mm256_add_pd(acc1, cmul(load2(s + 2), tap));
    }
    store2(out + i, acc0);
    store2(out + i + 2, acc1);
  }
  for (; i + 2 <= n_out; i += 2) {
    const cplx* w0 = x + i + n_taps - 1;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m256d tap = _mm256_broadcast_pd(
          reinterpret_cast<const __m128d*>(taps + t));
      acc = _mm256_add_pd(acc, cmul(load2(w0 - t), tap));
    }
    store2(out + i, acc);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    __m128d acc = _mm_setzero_pd();
    for (std::size_t t = 0; t < n_taps; ++t) {
      const __m128d b = load1(taps + t);
      const __m128d a = load1(w - t);
      const __m128d b_re = _mm_shuffle_pd(b, b, 0x0);
      const __m128d b_im = _mm_shuffle_pd(b, b, 0x3);
      const __m128d a_swap = _mm_shuffle_pd(a, a, 0x1);
      acc = _mm_add_pd(acc, _mm_addsub_pd(_mm_mul_pd(a, b_re),
                                          _mm_mul_pd(a_swap, b_im)));
    }
    store1(out + i, acc);
  }
}

void cvec_add(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store2(out + i, _mm256_add_pd(load2(a + i), load2(b + i)));
  }
  for (; i < n; ++i) {
    store1(out + i, _mm_add_pd(load1(a + i), load1(b + i)));
  }
}

void cvec_mul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store2(out + i, cmul(load2(a + i), load2(b + i)));
  }
  for (; i < n; ++i) {
    const __m128d bv = load1(b + i);
    const __m128d av = load1(a + i);
    const __m128d b_re = _mm_shuffle_pd(bv, bv, 0x0);
    const __m128d b_im = _mm_shuffle_pd(bv, bv, 0x3);
    const __m128d a_swap = _mm_shuffle_pd(av, av, 0x1);
    store1(out + i, _mm_addsub_pd(_mm_mul_pd(av, b_re),
                                  _mm_mul_pd(a_swap, b_im)));
  }
}

void cvec_scale(const cplx* in, double s, cplx* out, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store2(out + i, _mm256_mul_pd(load2(in + i), sv));
  }
  for (; i < n; ++i) {
    store1(out + i,
           _mm_mul_pd(load1(in + i), _mm256_castpd256_pd128(sv)));
  }
}

void rvec_add(double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        a + i, _mm256_add_pd(_mm256_loadu_pd(a + i),
                             _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

// --- IQ wire codec (Muła & Lemire, arXiv:1704.00605) --------------------
// One 32-digit block is 24 bytes, six float32, three samples. Each
// 128-bit lane carries 12 of the bytes: lane 0 bytes 0..11, lane 1
// bytes 12..23. Narrowing and widening use vcvtpd2ps / vcvtps2pd, which
// round (and quiet NaNs) exactly as the scalar static_casts do.

/// Per lane, 12 bytes at lane offsets 0..11 to their 16 base64 digits.
inline __m256i b64_encode_block(__m256i in) {
  // Group (s0,s1,s2) -> dword bytes [s1,s0,s2,s1]: low word s0:s1, high
  // word s1:s2, so one mulhi and one mullo place the four 6-bit fields.
  in = _mm256_shuffle_epi8(
      in, _mm256_setr_epi8(1, 0, 2, 1, 4, 3, 5, 4, 7, 6, 8, 7, 10, 9, 11,
                           10, 1, 0, 2, 1, 4, 3, 5, 4, 7, 6, 8, 7, 10, 9,
                           11, 10));
  const __m256i ac = _mm256_mulhi_epu16(
      _mm256_and_si256(in, _mm256_set1_epi32(0x0fc0fc00)),
      _mm256_set1_epi32(0x04000040));
  const __m256i bd = _mm256_mullo_epi16(
      _mm256_and_si256(in, _mm256_set1_epi32(0x003f03f0)),
      _mm256_set1_epi32(0x01000010));
  const __m256i idx = _mm256_or_si256(ac, bd);  // one 6-bit value a byte
  // Range of each value -> offset to its ASCII digit: 0..25 -> 13 ('A'),
  // 26..51 -> 0 ('a'-26), 52..61 -> 1..10 ('0'-52), 62 -> 11, 63 -> 12.
  __m256i sel = _mm256_subs_epu8(idx, _mm256_set1_epi8(51));
  const __m256i upper = _mm256_cmpgt_epi8(_mm256_set1_epi8(26), idx);
  sel = _mm256_or_si256(sel, _mm256_and_si256(upper, _mm256_set1_epi8(13)));
  const __m256i offset = _mm256_setr_epi8(
      'a' - 26, '0' - 52, '0' - 52, '0' - 52, '0' - 52, '0' - 52, '0' - 52,
      '0' - 52, '0' - 52, '0' - 52, '0' - 52, '+' - 62, '/' - 63, 'A', 0, 0,
      'a' - 26, '0' - 52, '0' - 52, '0' - 52, '0' - 52, '0' - 52, '0' - 52,
      '0' - 52, '0' - 52, '0' - 52, '0' - 52, '+' - 62, '/' - 63, 'A', 0, 0);
  return _mm256_add_epi8(idx, _mm256_shuffle_epi8(offset, sel));
}

void iq_pack(const cplx* x, std::size_t n, char* out) {
  for (std::size_t s = 0; s < n; s += 3, x += 3, out += 32) {
    const __m128i f0123 = _mm_castps_si128(
        _mm256_cvtpd_ps(_mm256_loadu_pd(reinterpret_cast<const double*>(x))));
    const __m128i f45 = _mm_castps_si128(
        _mm_cvtpd_ps(_mm_loadu_pd(reinterpret_cast<const double*>(x + 2))));
    const __m128i f345 = _mm_alignr_epi8(f45, f0123, 12);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out),
        b64_encode_block(_mm256_inserti128_si256(
            _mm256_castsi128_si256(f0123), f345, 1)));
  }
}

bool iq_unpack(const char* in, std::size_t n_chars, cplx* out) {
  // Nibble classes: a byte is a digit iff lut_lo[low] & lut_hi[high] is
  // 0; every other byte ('=', controls, >= 0x80) hits a shared bit.
  const __m256i lut_lo = _mm256_setr_epi8(
      0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x13,
      0x1A, 0x1B, 0x1B, 0x1B, 0x1A, 0x15, 0x11, 0x11, 0x11, 0x11, 0x11,
      0x11, 0x11, 0x11, 0x11, 0x13, 0x1A, 0x1B, 0x1B, 0x1B, 0x1A);
  const __m256i lut_hi = _mm256_setr_epi8(
      0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08, 0x10, 0x10, 0x10,
      0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x01, 0x02, 0x04, 0x08,
      0x04, 0x08, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10);
  // Digit value = byte + roll[high nibble], '/' moved to its own slot.
  const __m256i lut_roll = _mm256_setr_epi8(
      0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 19,
      4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0);
  const __m256i mask_2f = _mm256_set1_epi8(0x2f);
  __m256i bad = _mm256_setzero_si256();
  for (std::size_t c = 0; c < n_chars; c += 32, in += 32, out += 3) {
    const __m256i str =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
    // Bit 7 is cleared so vpshufb never zeroes; bit 5 rides along and
    // vpshufb ignores it.
    const __m256i hi_nib =
        _mm256_and_si256(_mm256_srli_epi32(str, 4), mask_2f);
    const __m256i lo_nib = _mm256_and_si256(str, mask_2f);
    bad = _mm256_or_si256(
        bad, _mm256_and_si256(_mm256_shuffle_epi8(lut_lo, lo_nib),
                              _mm256_shuffle_epi8(lut_hi, hi_nib)));
    const __m256i eq_2f = _mm256_cmpeq_epi8(str, mask_2f);
    const __m256i val = _mm256_add_epi8(
        str, _mm256_shuffle_epi8(lut_roll, _mm256_add_epi8(eq_2f, hi_nib)));
    // 4 x 6 bits -> 3 bytes per dword, then 12 bytes per lane, then the
    // 24 bytes to the low end of the register.
    const __m256i ab_cd =
        _mm256_maddubs_epi16(val, _mm256_set1_epi32(0x01400140));
    const __m256i abcd =
        _mm256_madd_epi16(ab_cd, _mm256_set1_epi32(0x00011000));
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(
            abcd, _mm256_setr_epi8(2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12,
                                   -1, -1, -1, -1, 2, 1, 0, 6, 5, 4, 10, 9,
                                   8, 14, 13, 12, -1, -1, -1, -1)),
        _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 7, 7));
    auto* d = reinterpret_cast<double*>(out);
    _mm256_storeu_pd(
        d, _mm256_cvtps_pd(_mm_castsi128_ps(_mm256_castsi256_si128(packed))));
    _mm_storeu_pd(d + 4, _mm_cvtps_pd(_mm_castsi128_ps(
                             _mm256_extracti128_si256(packed, 1))));
  }
  return !_mm256_testz_si256(bad, bad);
}

}  // namespace avx2

const Kernels& avx2_kernels() {
  static const Kernels table = {
      "avx2",
      avx2::fft_sr_gather,
      avx2::fft_sr_combine,
      avx2::fft_sr_last,
      avx2::fir_cr,
      avx2::fir_cc,
      avx2::cvec_add,
      avx2::cvec_mul,
      avx2::cvec_scale,
      avx2::rvec_add,
      scalar_kernels().map_lut,
      // A 4-lane ACS ran no faster end to end than the 2-lane one.
      sse2_kernels().viterbi_acs,
      avx2::iq_pack,
      avx2::iq_unpack,
  };
  return table;
}

}  // namespace ofdm::simd

#endif  // x86-64
