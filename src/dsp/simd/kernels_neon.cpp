// NEON tier (AArch64): one complex per 128-bit register, with
// deinterleaved vld2q loads where two outputs are produced per
// iteration. All arithmetic is plain vmul/vadd/vsub — never
// vmla/vfma, which would fuse the rounding and break bit-identity
// with the scalar reference.
#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {
namespace neon {

/// [a.re*b.re - a.im*b.im, a.im*b.re + a.re*b.im]
inline float64x2_t cmul(float64x2_t a, float64x2_t b) {
  const float64x2_t b_re = vdupq_laneq_f64(b, 0);
  const float64x2_t b_im = vdupq_laneq_f64(b, 1);
  const float64x2_t a_swap = vextq_f64(a, a, 1);
  const float64x2_t prod_re = vmulq_f64(a, b_re);
  const float64x2_t prod_im = vmulq_f64(a_swap, b_im);
  // lane 0: a.re*b.re - a.im*b.im; lane 1: a.im*b.re + a.re*b.im
  const float64x2_t sub = vsubq_f64(prod_re, prod_im);
  const float64x2_t add = vaddq_f64(prod_re, prod_im);
  return vcombine_f64(vget_low_f64(sub), vget_high_f64(add));
}

inline float64x2_t load(const cplx* p) {
  return vld1q_f64(reinterpret_cast<const double*>(p));
}
inline void store(cplx* p, float64x2_t v) {
  vst1q_f64(reinterpret_cast<double*>(p), v);
}

void fft_stage(cplx* d, const cplx* tw, std::size_t n,
               std::size_t len) {
  const std::size_t half = len / 2;
  for (std::size_t base = 0; base < n; base += len) {
    cplx* lo = d + base;
    cplx* hi = lo + half;
    for (std::size_t k = 0; k < half; ++k) {
      const float64x2_t t = cmul(load(hi + k), load(tw + k));
      const float64x2_t u = load(lo + k);
      store(lo + k, vaddq_f64(u, t));
      store(hi + k, vsubq_f64(u, t));
    }
  }
}

void fft_last_stage(cplx* d, const cplx* tw, std::size_t half,
                    double scale) {
  cplx* lo = d;
  cplx* hi = d + half;
  if (scale == 1.0) {
    for (std::size_t k = 0; k < half; ++k) {
      const float64x2_t t = cmul(load(hi + k), load(tw + k));
      const float64x2_t u = load(lo + k);
      store(lo + k, vaddq_f64(u, t));
      store(hi + k, vsubq_f64(u, t));
    }
    return;
  }
  const float64x2_t s = vdupq_n_f64(scale);
  for (std::size_t k = 0; k < half; ++k) {
    const float64x2_t t = cmul(load(hi + k), load(tw + k));
    const float64x2_t u = load(lo + k);
    store(lo + k, vmulq_f64(vaddq_f64(u, t), s));
    store(hi + k, vmulq_f64(vsubq_f64(u, t), s));
  }
}

/// ∓j * v: swap the two lanes, then negate one of them — both exact,
/// matching the scalar rot90 bit-for-bit.
inline float64x2_t rot90(float64x2_t v, bool inverse) {
  return inverse
             ? vcombine_f64(vneg_f64(vget_high_f64(v)), vget_low_f64(v))
             : vcombine_f64(vget_high_f64(v), vneg_f64(vget_low_f64(v)));
}

void fft_sr_gather(const cplx* in, cplx* out, const std::uint32_t* perm,
                   const std::uint32_t* quads, std::size_t n_quads,
                   const std::uint32_t* pairs, std::size_t n_pairs,
                   bool inverse) {
  for (std::size_t q = 0; q < n_quads; ++q) {
    const std::size_t p = quads[q];
    const float64x2_t g0 = load(in + perm[p]);
    const float64x2_t g1 = load(in + perm[p + 1]);
    const float64x2_t g2 = load(in + perm[p + 2]);
    const float64x2_t g3 = load(in + perm[p + 3]);
    const float64x2_t e0 = vaddq_f64(g0, g1);
    const float64x2_t e1 = vsubq_f64(g0, g1);
    const float64x2_t ts = vaddq_f64(g2, g3);
    const float64x2_t td = rot90(vsubq_f64(g2, g3), inverse);
    store(out + p, vaddq_f64(e0, ts));
    store(out + p + 2, vsubq_f64(e0, ts));
    store(out + p + 1, vaddq_f64(e1, td));
    store(out + p + 3, vsubq_f64(e1, td));
  }
  for (std::size_t r = 0; r < n_pairs; ++r) {
    const std::size_t p = pairs[r];
    const float64x2_t g0 = load(in + perm[p]);
    const float64x2_t g1 = load(in + perm[p + 1]);
    store(out + p, vaddq_f64(g0, g1));
    store(out + p + 1, vsubq_f64(g0, g1));
  }
}

void fft_sr_combine(cplx* d, const cplx* tw, const std::uint32_t* offs,
                    std::size_t n_offs, std::size_t n4, bool inverse) {
  for (std::size_t b = 0; b < n_offs; ++b) {
    cplx* const u0 = d + offs[b];
    cplx* const u1 = u0 + n4;
    cplx* const z = u0 + 2 * n4;
    cplx* const zp = u0 + 3 * n4;
    for (std::size_t j = 0; j < n4; ++j) {
      const float64x2_t t1 = cmul(load(z + j), load(tw + j));
      const float64x2_t t3 = cmul(load(zp + j), load(tw + n4 + j));
      const float64x2_t ts = vaddq_f64(t1, t3);
      const float64x2_t td = rot90(vsubq_f64(t1, t3), inverse);
      const float64x2_t a = load(u0 + j);
      const float64x2_t c = load(u1 + j);
      store(u0 + j, vaddq_f64(a, ts));
      store(z + j, vsubq_f64(a, ts));
      store(u1 + j, vaddq_f64(c, td));
      store(zp + j, vsubq_f64(c, td));
    }
  }
}

void fft_sr_last(const cplx* src, cplx* dst, const cplx* tw,
                 std::size_t n4, bool inverse, double scale) {
  const cplx* const u0 = src;
  const cplx* const u1 = src + n4;
  const cplx* const z = src + 2 * n4;
  const cplx* const zp = src + 3 * n4;
  if (scale == 1.0) {
    for (std::size_t j = 0; j < n4; ++j) {
      const float64x2_t t1 = cmul(load(z + j), load(tw + j));
      const float64x2_t t3 = cmul(load(zp + j), load(tw + n4 + j));
      const float64x2_t ts = vaddq_f64(t1, t3);
      const float64x2_t td = rot90(vsubq_f64(t1, t3), inverse);
      const float64x2_t a = load(u0 + j);
      const float64x2_t c = load(u1 + j);
      store(dst + j, vaddq_f64(a, ts));
      store(dst + 2 * n4 + j, vsubq_f64(a, ts));
      store(dst + n4 + j, vaddq_f64(c, td));
      store(dst + 3 * n4 + j, vsubq_f64(c, td));
    }
    return;
  }
  const float64x2_t s = vdupq_n_f64(scale);
  for (std::size_t j = 0; j < n4; ++j) {
    const float64x2_t t1 = cmul(load(z + j), load(tw + j));
    const float64x2_t t3 = cmul(load(zp + j), load(tw + n4 + j));
    const float64x2_t ts = vaddq_f64(t1, t3);
    const float64x2_t td = rot90(vsubq_f64(t1, t3), inverse);
    const float64x2_t a = load(u0 + j);
    const float64x2_t c = load(u1 + j);
    store(dst + j, vmulq_f64(vaddq_f64(a, ts), s));
    store(dst + 2 * n4 + j, vmulq_f64(vsubq_f64(a, ts), s));
    store(dst + n4 + j, vmulq_f64(vaddq_f64(c, td), s));
    store(dst + 3 * n4 + j, vmulq_f64(vsubq_f64(c, td), s));
  }
}

void fir_cr(const cplx* x, const double* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  // Two outputs per iteration, deinterleaved: acc.val[0] carries both
  // outputs' real parts, acc.val[1] both imaginary parts.
  for (; i + 2 <= n_out; i += 2) {
    const double* w0 =
        reinterpret_cast<const double*>(x + i + n_taps - 1);
    float64x2_t acc_re = vdupq_n_f64(0.0);
    float64x2_t acc_im = vdupq_n_f64(0.0);
    for (std::size_t t = 0; t < n_taps; ++t) {
      const float64x2_t tap = vdupq_n_f64(taps[t]);
      const float64x2x2_t s = vld2q_f64(w0 - 2 * t);
      acc_re = vaddq_f64(acc_re, vmulq_f64(s.val[0], tap));
      acc_im = vaddq_f64(acc_im, vmulq_f64(s.val[1], tap));
    }
    float64x2x2_t res;
    res.val[0] = acc_re;
    res.val[1] = acc_im;
    vst2q_f64(reinterpret_cast<double*>(out + i), res);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = vaddq_f64(acc, vmulq_f64(load(w - t), vdupq_n_f64(taps[t])));
    }
    store(out + i, acc);
  }
}

void fir_cc(const cplx* x, const cplx* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 2 <= n_out; i += 2) {
    const double* w0 =
        reinterpret_cast<const double*>(x + i + n_taps - 1);
    float64x2_t acc_re = vdupq_n_f64(0.0);
    float64x2_t acc_im = vdupq_n_f64(0.0);
    for (std::size_t t = 0; t < n_taps; ++t) {
      const float64x2_t tap_re = vdupq_n_f64(taps[t].real());
      const float64x2_t tap_im = vdupq_n_f64(taps[t].imag());
      const float64x2x2_t s = vld2q_f64(w0 - 2 * t);
      // p = s * tap, naive form per lane
      const float64x2_t p_re = vsubq_f64(vmulq_f64(s.val[0], tap_re),
                                         vmulq_f64(s.val[1], tap_im));
      const float64x2_t p_im = vaddq_f64(vmulq_f64(s.val[0], tap_im),
                                         vmulq_f64(s.val[1], tap_re));
      acc_re = vaddq_f64(acc_re, p_re);
      acc_im = vaddq_f64(acc_im, p_im);
    }
    float64x2x2_t res;
    res.val[0] = acc_re;
    res.val[1] = acc_im;
    vst2q_f64(reinterpret_cast<double*>(out + i), res);
  }
  for (; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t t = 0; t < n_taps; ++t) {
      acc = vaddq_f64(acc, cmul(load(w - t), load(taps + t)));
    }
    store(out + i, acc);
  }
}

void cvec_add(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, vaddq_f64(load(a + i), load(b + i)));
  }
}

void cvec_mul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, cmul(load(a + i), load(b + i)));
  }
}

void cvec_scale(const cplx* in, double s, cplx* out, std::size_t n) {
  const float64x2_t sv = vdupq_n_f64(s);
  for (std::size_t i = 0; i < n; ++i) {
    store(out + i, vmulq_f64(load(in + i), sv));
  }
}

void rvec_add(double* a, const double* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(a + i, vaddq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) a[i] += b[i];
}

void demap_soft(const cplx* syms, std::size_t n_sym, const cplx* points,
                std::size_t n_points, std::size_t n_bits,
                const double* noise_var, std::size_t nv_stride,
                double* out) {
  const float64x2_t big = vdupq_n_f64(1e300);
  std::size_t j = 0;
  // Two symbols per iteration via a deinterleaving vld2q load. vminq
  // keeps the incumbent on ties, matching the scalar `d < best` update
  // (all distances are non-negative, so ±0.0 never disagrees).
  for (; j + 2 <= n_sym; j += 2) {
    float64x2_t d0[16];
    float64x2_t d1[16];
    for (std::size_t b = 0; b < n_bits; ++b) {
      d0[b] = big;
      d1[b] = big;
    }
    const float64x2x2_t s =
        vld2q_f64(reinterpret_cast<const double*>(syms + j));
    const float64x2_t s_re = s.val[0];
    const float64x2_t s_im = s.val[1];
    for (std::size_t idx = 0; idx < n_points; ++idx) {
      const float64x2_t dr =
          vsubq_f64(s_re, vdupq_n_f64(points[idx].real()));
      const float64x2_t di =
          vsubq_f64(s_im, vdupq_n_f64(points[idx].imag()));
      const float64x2_t d =
          vaddq_f64(vmulq_f64(dr, dr), vmulq_f64(di, di));
      for (std::size_t b = 0; b < n_bits; ++b) {
        if ((idx >> (n_bits - 1 - b)) & 1u) {
          d1[b] = vminq_f64(d1[b], d);
        } else {
          d0[b] = vminq_f64(d0[b], d);
        }
      }
    }
    const float64x2_t nv = nv_stride == 0
                               ? vdupq_n_f64(noise_var[0])
                               : vld1q_f64(noise_var + j);
    double lanes[2];
    for (std::size_t b = 0; b < n_bits; ++b) {
      vst1q_f64(lanes, vdivq_f64(vsubq_f64(d1[b], d0[b]), nv));
      out[j * n_bits + b] = lanes[0];
      out[(j + 1) * n_bits + b] = lanes[1];
    }
  }
  for (; j < n_sym; ++j) {
    double d0[16];
    double d1[16];
    for (std::size_t b = 0; b < n_bits; ++b) {
      d0[b] = 1e300;
      d1[b] = 1e300;
    }
    const double s_re = syms[j].real();
    const double s_im = syms[j].imag();
    for (std::size_t idx = 0; idx < n_points; ++idx) {
      const double dr = s_re - points[idx].real();
      const double di = s_im - points[idx].imag();
      const double d = dr * dr + di * di;
      for (std::size_t b = 0; b < n_bits; ++b) {
        if ((idx >> (n_bits - 1 - b)) & 1u) {
          if (d < d1[b]) d1[b] = d;
        } else {
          if (d < d0[b]) d0[b] = d;
        }
      }
    }
    const double nv = noise_var[j * nv_stride];
    for (std::size_t b = 0; b < n_bits; ++b) {
      out[j * n_bits + b] = (d1[b] - d0[b]) / nv;
    }
  }
}

}  // namespace neon

const Kernels& neon_kernels() {
  static const Kernels table = {
      "neon",
      neon::fft_stage,
      neon::fft_last_stage,
      neon::fft_sr_gather,
      neon::fft_sr_combine,
      neon::fft_sr_last,
      neon::fir_cr,
      neon::fir_cc,
      neon::cvec_add,
      neon::cvec_mul,
      neon::cvec_scale,
      neon::rvec_add,
      scalar_kernels().map_lut,
      neon::demap_soft,
      scalar_kernels().viterbi_acs,
  };
  return table;
}

}  // namespace ofdm::simd

#endif  // __aarch64__
