// Scalar reference tier. Every other tier must be bit-identical to
// this file on finite inputs; these loops are deliberately written as
// the plainest possible statement of each kernel's contract.
//
// Complex multiplies are spelled out as the naive (ac - bd, ad + bc)
// form. For finite values this is exactly what libstdc++'s
// std::complex<double> operator* computes (the Annex-G __muldc3
// recovery path only triggers on NaN results), so the datapath's bits
// do not move when a call site switches from operator* to a kernel.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

// --- IQ wire codec ------------------------------------------------------
// A block is three samples: six float32, 24 bytes, eight base64 groups.
// The bytes live in three big-endian 64-bit words (the wire order), so a
// group is a shift and a mask, and no byte array is stored and then
// reloaded at another width.

constexpr char kB64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// kB64Pairs.c[v]: the two digits of the 12-bit value v, so a group is
/// two 2-byte copies.
struct B64Pairs {
  char c[4096][2];
  constexpr B64Pairs() : c() {
    for (int v = 0; v < 4096; ++v) {
      c[v][0] = kB64[v >> 6];
      c[v][1] = kB64[v & 63];
    }
  }
};
constexpr B64Pairs kB64Pairs;

/// kB64Digit.v[j][c]: the value of byte c as the j-th digit of a group,
/// already shifted into place (18 - 6j). A byte outside the alphabet
/// ('=' included) reads as bit 24, so one OR over a block's groups flags
/// the block.
struct B64Digit {
  std::uint32_t v[4][256];
  constexpr B64Digit() : v() {
    for (int j = 0; j < 4; ++j) {
      for (int c = 0; c < 256; ++c) v[j][c] = 1u << 24;
      for (int d = 0; d < 64; ++d) {
        v[j][static_cast<unsigned char>(kB64[d])] =
            static_cast<std::uint32_t>(d) << (18 - 6 * j);
      }
    }
  }
};
constexpr B64Digit kB64Digit;

/// Two floats as the big-endian word of their little-endian bytes.
inline std::uint64_t wire_word(double re, double im) {
  const auto le = [](double v) {
    return static_cast<std::uint64_t>(__builtin_bswap32(
        std::bit_cast<std::uint32_t>(static_cast<float>(v))));
  };
  return (le(re) << 32) | le(im);
}

inline cplx wire_sample(std::uint64_t be) {
  const auto f = [](std::uint64_t w) {
    return static_cast<double>(std::bit_cast<float>(
        __builtin_bswap32(static_cast<std::uint32_t>(w))));
  };
  return {f(be >> 32), f(be)};
}

inline void put_group(std::uint64_t v, char* out) {
  std::memcpy(out, kB64Pairs.c[v >> 12], 2);
  std::memcpy(out + 2, kB64Pairs.c[v & 0xFFF], 2);
}

void iq_pack(const cplx* x, std::size_t n, char* out) {
  constexpr std::uint64_t m = 0xFFFFFF;
  for (std::size_t s = 0; s < n; s += 3, x += 3, out += 32) {
    const std::uint64_t w0 = wire_word(x[0].real(), x[0].imag());
    const std::uint64_t w1 = wire_word(x[1].real(), x[1].imag());
    const std::uint64_t w2 = wire_word(x[2].real(), x[2].imag());
    put_group(w0 >> 40, out);
    put_group((w0 >> 16) & m, out + 4);
    put_group(((w0 << 8) | (w1 >> 56)) & m, out + 8);
    put_group((w1 >> 32) & m, out + 12);
    put_group((w1 >> 8) & m, out + 16);
    put_group(((w1 << 16) | (w2 >> 48)) & m, out + 20);
    put_group((w2 >> 24) & m, out + 24);
    put_group(w2 & m, out + 28);
  }
}

bool iq_unpack(const char* in, std::size_t n_chars, cplx* out) {
  const auto* s = reinterpret_cast<const unsigned char*>(in);
  std::uint32_t invalid = 0;
  const auto group = [&](const unsigned char* g) -> std::uint64_t {
    const std::uint32_t v = kB64Digit.v[0][g[0]] | kB64Digit.v[1][g[1]] |
                            kB64Digit.v[2][g[2]] | kB64Digit.v[3][g[3]];
    invalid |= v;
    return v;
  };
  for (std::size_t c = 0; c < n_chars; c += 32, s += 32, out += 3) {
    const std::uint64_t v0 = group(s), v1 = group(s + 4);
    const std::uint64_t v2 = group(s + 8);
    out[0] = wire_sample((v0 << 40) | (v1 << 16) | (v2 >> 8));
    const std::uint64_t v3 = group(s + 12), v4 = group(s + 16);
    const std::uint64_t v5 = group(s + 20);
    out[1] = wire_sample((v2 << 56) | (v3 << 32) | (v4 << 8) | (v5 >> 16));
    const std::uint64_t v6 = group(s + 24), v7 = group(s + 28);
    out[2] = wire_sample((v5 << 48) | (v6 << 24) | v7);
  }
  return (invalid >> 24) != 0;
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
      scalar::viterbi_acs,
      scalar::iq_pack,
      scalar::iq_unpack,
  };
  return table;
}

}  // namespace ofdm::simd
