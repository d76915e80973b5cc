// Scalar reference tier. Every other tier must be bit-identical to
// this file on finite inputs; these loops are deliberately written as
// the plainest possible statement of each kernel's contract.
//
// Complex multiplies are spelled out as the naive (ac - bd, ad + bc)
// form. For finite values this is exactly what libstdc++'s
// std::complex<double> operator* computes (the Annex-G __muldc3
// recovery path only triggers on NaN results), so the datapath's bits
// do not move when a call site switches from operator* to a kernel.
#include <cstddef>
#include <cstdint>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {
namespace scalar {

inline cplx cmul(const cplx& a, const cplx& b) {
  const double ar = a.real(), ai = a.imag();
  const double br = b.real(), bi = b.imag();
  return {ar * br - ai * bi, ar * bi + ai * br};
}

/// ∓j * v: (v.im, -v.re) forward, (-v.im, v.re) inverse. A component
/// swap plus a sign flip — exact in IEEE-754, so the split-radix
/// butterflies need no separate inverse twiddle trick for the ±j legs.
inline cplx rot90(const cplx& v, bool inverse) {
  return inverse ? cplx{-v.imag(), v.real()} : cplx{v.imag(), -v.real()};
}

void fft_sr_gather(const cplx* in, cplx* out, const std::uint32_t* perm,
                   const std::uint32_t* quads, std::size_t n_quads,
                   const std::uint32_t* pairs, std::size_t n_pairs,
                   bool inverse) {
  for (std::size_t q = 0; q < n_quads; ++q) {
    const std::size_t p = quads[q];
    const cplx g0 = in[perm[p]];
    const cplx g1 = in[perm[p + 1]];
    const cplx g2 = in[perm[p + 2]];
    const cplx g3 = in[perm[p + 3]];
    const cplx e0 = g0 + g1;
    const cplx e1 = g0 - g1;
    const cplx ts = g2 + g3;
    const cplx td = rot90(g2 - g3, inverse);
    out[p] = e0 + ts;
    out[p + 2] = e0 - ts;
    out[p + 1] = e1 + td;
    out[p + 3] = e1 - td;
  }
  for (std::size_t r = 0; r < n_pairs; ++r) {
    const std::size_t p = pairs[r];
    const cplx g0 = in[perm[p]];
    const cplx g1 = in[perm[p + 1]];
    out[p] = g0 + g1;
    out[p + 1] = g0 - g1;
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
      const cplx t1 = cmul(z[j], tw[j]);
      const cplx t3 = cmul(zp[j], tw[n4 + j]);
      const cplx ts = t1 + t3;
      const cplx td = rot90(t1 - t3, inverse);
      const cplx a = u0[j];
      const cplx c = u1[j];
      u0[j] = a + ts;
      z[j] = a - ts;
      u1[j] = c + td;
      zp[j] = c - td;
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
      const cplx t1 = cmul(z[j], tw[j]);
      const cplx t3 = cmul(zp[j], tw[n4 + j]);
      const cplx ts = t1 + t3;
      const cplx td = rot90(t1 - t3, inverse);
      const cplx a = u0[j];
      const cplx c = u1[j];
      dst[j] = a + ts;
      dst[2 * n4 + j] = a - ts;
      dst[n4 + j] = c + td;
      dst[3 * n4 + j] = c - td;
    }
    return;
  }
  for (std::size_t j = 0; j < n4; ++j) {
    const cplx t1 = cmul(z[j], tw[j]);
    const cplx t3 = cmul(zp[j], tw[n4 + j]);
    const cplx ts = t1 + t3;
    const cplx td = rot90(t1 - t3, inverse);
    const cplx a = u0[j];
    const cplx c = u1[j];
    dst[j] = (a + ts) * scale;
    dst[2 * n4 + j] = (a - ts) * scale;
    dst[n4 + j] = (c + td) * scale;
    dst[3 * n4 + j] = (c - td) * scale;
  }
}

void fir_cr(const cplx* x, const double* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  for (std::size_t i = 0; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    double acc_re = 0.0, acc_im = 0.0;
    for (std::size_t t = 0; t < n_taps; ++t) {
      const cplx& s = w[-static_cast<std::ptrdiff_t>(t)];
      acc_re += s.real() * taps[t];
      acc_im += s.imag() * taps[t];
    }
    out[i] = {acc_re, acc_im};
  }
}

void fir_cc(const cplx* x, const cplx* taps, std::size_t n_taps,
            cplx* out, std::size_t n_out) {
  for (std::size_t i = 0; i < n_out; ++i) {
    const cplx* w = x + i + n_taps - 1;
    double acc_re = 0.0, acc_im = 0.0;
    for (std::size_t t = 0; t < n_taps; ++t) {
      const cplx& s = w[-static_cast<std::ptrdiff_t>(t)];
      const cplx p = cmul(s, taps[t]);
      acc_re += p.real();
      acc_im += p.imag();
    }
    out[i] = {acc_re, acc_im};
  }
}

void cvec_add(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void cvec_mul(const cplx* a, const cplx* b, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = cmul(a[i], b[i]);
}

void cvec_scale(const cplx* in, double s, cplx* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = {in[i].real() * s, in[i].imag() * s};
  }
}

void rvec_add(double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}

void map_lut(const std::uint8_t* bits, std::size_t n_sym,
             std::size_t bps, const cplx* lut, cplx* out) {
  for (std::size_t j = 0; j < n_sym; ++j) {
    std::size_t index = 0;
    const std::uint8_t* g = bits + j * bps;
    for (std::size_t b = 0; b < bps; ++b) {
      index = (index << 1) | (g[b] & 1u);
    }
    out[j] = lut[index];
  }
}

void demap_soft(const cplx* syms, std::size_t n_sym, const cplx* points,
                std::size_t n_points, std::size_t n_bits,
                const double* noise_var, std::size_t nv_stride,
                double* out) {
  for (std::size_t j = 0; j < n_sym; ++j) {
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
    double* o = out + j * n_bits;
    for (std::size_t b = 0; b < n_bits; ++b) {
      o[b] = (d1[b] - d0[b]) / nv;
    }
  }
}

void viterbi_acs(double* metric, std::size_t states,
                 const std::uint32_t* branch, const double* bm,
                 std::size_t n_bm, std::size_t steps, std::uint64_t* dec) {
  const std::size_t half = states / 2;
  const std::size_t words = (states + 63) / 64;
  double next[256];
  for (std::size_t t = 0; t < steps; ++t) {
    const double* b = bm + t * n_bm;
    std::uint64_t* d = dec + t * words;
    for (std::size_t w = 0; w < words; ++w) d[w] = 0;
    for (std::size_t ns = 0; ns < states; ++ns) {
      const std::size_t s0 = 2 * (ns % half);
      const double c0 = metric[s0] + b[branch[ns]];
      const double c1 = metric[s0 + 1] + b[branch[states + ns]];
      const bool s1_wins = c1 < c0;
      next[ns] = s1_wins ? c1 : c0;
      d[ns / 64] |= std::uint64_t{s1_wins} << (ns % 64);
    }
    for (std::size_t s = 0; s < states; ++s) metric[s] = next[s];
  }
}

}  // namespace scalar

const Kernels& scalar_kernels() {
  static const Kernels table = {
      "scalar",
      scalar::fft_sr_gather,
      scalar::fft_sr_combine,
      scalar::fft_sr_last,
      scalar::fir_cr,
      scalar::fir_cc,
      scalar::cvec_add,
      scalar::cvec_mul,
      scalar::cvec_scale,
      scalar::rvec_add,
      scalar::map_lut,
      scalar::demap_soft,
      scalar::viterbi_acs,
  };
  return table;
}

}  // namespace ofdm::simd
