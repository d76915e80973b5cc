#include "mapping/constellation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm::mapping {

namespace {
// Constellations at or below this bit width get an eager point table
// (at most 1024 entries, 16 KiB) so map_into is a pure LUT sweep. The
// 8+8-bit rectangular extreme would cost 1 MiB per instance — those
// keep the computed path.
constexpr std::size_t kLutMaxBits = 10;
// Stack chunk for the batched hard demap's scale pass.
constexpr std::size_t kDemapChunk = 128;
// Symbols per stack block of the soft demapper: a block's per-axis
// class minima are 2 axes x 8 bits x 2 classes x kSoftBlock doubles.
constexpr std::size_t kSoftBlock = 32;
// Ceiling of a bit class's squared distance, as in an exhaustive scan
// from 1e300: a symbol whose distances overflow, or a NaN symbol (its
// minima stay +inf), gives a zero LLR rather than inf - inf.
constexpr double kFarDistance = 1e300;
}  // namespace

std::size_t bits_per_symbol(Scheme s) {
  switch (s) {
    case Scheme::kBpsk: return 1;
    case Scheme::kQpsk: return 2;
    case Scheme::kQam16: return 4;
    case Scheme::kQam64: return 6;
    case Scheme::kQam256: return 8;
  }
  return 0;
}

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kBpsk: return "BPSK";
    case Scheme::kQpsk: return "QPSK";
    case Scheme::kQam16: return "16-QAM";
    case Scheme::kQam64: return "64-QAM";
    case Scheme::kQam256: return "256-QAM";
  }
  return "?";
}

Constellation Constellation::make(Scheme s) {
  switch (s) {
    case Scheme::kBpsk: return Constellation(1, 0);
    case Scheme::kQpsk: return Constellation(1, 1);
    case Scheme::kQam16: return Constellation(2, 2);
    case Scheme::kQam64: return Constellation(3, 3);
    case Scheme::kQam256: return Constellation(4, 4);
  }
  return Constellation(1, 0);
}

Constellation Constellation::make_rect(std::size_t bits_i,
                                       std::size_t bits_q) {
  return Constellation(bits_i, bits_q);
}

Constellation::Constellation(std::size_t bits_i, std::size_t bits_q)
    : bits_i_(bits_i), bits_q_(bits_q) {
  OFDM_REQUIRE(bits_i >= 1 && bits_i <= 8 && bits_q <= 8,
               "Constellation: need 1..8 I bits and 0..8 Q bits");
  // Average energy of an M-PAM axis with levels {±1, ±3, ...}: (M²-1)/3.
  auto axis_energy = [](std::size_t nbits) {
    if (nbits == 0) return 0.0;
    const double m = static_cast<double>(std::size_t{1} << nbits);
    return (m * m - 1.0) / 3.0;
  };
  norm_ = std::sqrt(axis_energy(bits_i_) + axis_energy(bits_q_));
  if (bits() <= kLutMaxBits) {
    lut_.resize(size());
    for (std::size_t i = 0; i < lut_.size(); ++i) lut_[i] = compute_point(i);
  }
}

cplx Constellation::compute_point(std::size_t index) const {
  const double i_level = gray_to_level(index >> bits_q_, bits_i_);
  double q_level = 0.0;
  if (bits_q_ > 0) {
    q_level = gray_to_level(index & ((std::size_t{1} << bits_q_) - 1),
                            bits_q_);
  }
  return cplx{i_level, q_level} / norm_;
}

int Constellation::gray_to_level(std::size_t gray_bits, std::size_t n_bits) {
  // Gray -> binary index.
  std::size_t b = gray_bits;
  for (std::size_t shift = 1; shift < n_bits; shift <<= 1) b ^= b >> shift;
  const std::size_t m = std::size_t{1} << n_bits;
  return 2 * static_cast<int>(b) - static_cast<int>(m - 1);
}

std::size_t Constellation::level_to_gray(double value, std::size_t n_bits) {
  const auto m = static_cast<long>(std::size_t{1} << n_bits);
  long idx = std::lround((value + static_cast<double>(m - 1)) / 2.0);
  idx = std::clamp(idx, 0l, m - 1);
  const auto b = static_cast<std::size_t>(idx);
  return b ^ (b >> 1);
}

cplx Constellation::map(std::span<const std::uint8_t> bits) const {
  OFDM_REQUIRE_DIM(bits.size() == this->bits(),
                   "Constellation::map: wrong bit count");
  return point(bits_to_uint(bits, 0, this->bits()));
}

void Constellation::map_into(std::span<const std::uint8_t> bits,
                             cvec& out) const {
  const std::size_t bps = this->bits();
  OFDM_REQUIRE_DIM(bits.size() % bps == 0,
                   "Constellation::map_into: bit count not a multiple of "
                   "bits per symbol");
  out.resize(bits.size() / bps);
  map_into(bits, std::span<cplx>(out));
}

void Constellation::map_into(std::span<const std::uint8_t> bits,
                             std::span<cplx> out) const {
  const std::size_t bps = this->bits();
  OFDM_REQUIRE_DIM(bits.size() == out.size() * bps,
                   "Constellation::map_into: bit count does not match the "
                   "symbol count");
  if (!lut_.empty()) {
    simd::kernels().map_lut(bits.data(), out.size(), bps, lut_.data(),
                            out.data());
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = map(bits.subspan(i * bps, bps));
  }
}

void Constellation::demap_scaled(cplx scaled, bitvec& out) const {
  append_uint(out, level_to_gray(scaled.real(), bits_i_), bits_i_);
  if (bits_q_ > 0) {
    append_uint(out, level_to_gray(scaled.imag(), bits_q_), bits_q_);
  }
}

void Constellation::demap(cplx symbol, bitvec& out) const {
  demap_scaled(symbol * norm_, out);
}

void Constellation::demap_into(std::span<const cplx> symbols,
                               bitvec& out) const {
  out.clear();
  out.reserve(symbols.size() * bits());
  // Batch the scale pass through the kernel table; the Gray slicing
  // itself stays scalar (std::lround's half-away-from-zero rounding has
  // no bit-exact vector equivalent).
  cplx scaled[kDemapChunk];
  for (std::size_t i = 0; i < symbols.size(); i += kDemapChunk) {
    const std::size_t m = std::min(kDemapChunk, symbols.size() - i);
    simd::kernels().cvec_scale(symbols.data() + i, norm_, scaled, m);
    for (std::size_t j = 0; j < m; ++j) demap_scaled(scaled[j], out);
  }
}

namespace {

// One axis of the separable max-log search over a block of kSoftBlock
// coordinates `s`: cls[b][c][j] is the minimum of fl((s[j] - level)²)
// over the levels whose bit b (MSB first of n_bits) equals c, and
// all[j] the minimum over every level. Minima start at +inf and take
// `d < m ? d : m`, so a NaN coordinate leaves them at +inf.
void axis_minima(const double* s, const double* levels, std::size_t n_bits,
                 double (*cls)[2][kSoftBlock], double* all) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::fill_n(all, kSoftBlock, kInf);
  for (std::size_t b = 0; b < n_bits; ++b) {
    std::fill_n(cls[b][0], kSoftBlock, kInf);
    std::fill_n(cls[b][1], kSoftBlock, kInf);
  }
  for (std::size_t l = 0; l < (std::size_t{1} << n_bits); ++l) {
    double d[kSoftBlock];
    for (std::size_t j = 0; j < kSoftBlock; ++j) {
      const double e = s[j] - levels[l];
      d[j] = e * e;
    }
    for (std::size_t j = 0; j < kSoftBlock; ++j) {
      all[j] = d[j] < all[j] ? d[j] : all[j];
    }
    for (std::size_t b = 0; b < n_bits; ++b) {
      double* m = cls[b][(l >> (n_bits - 1 - b)) & 1u];
      for (std::size_t j = 0; j < kSoftBlock; ++j) {
        m[j] = d[j] < m[j] ? d[j] : m[j];
      }
    }
  }
}

}  // namespace

void Constellation::demap_soft_into(std::span<const cplx> symbols,
                                    std::span<const double> noise_var,
                                    rvec& out) const {
  OFDM_REQUIRE_DIM(noise_var.size() == 1 ||
                       noise_var.size() == symbols.size(),
                   "demap_soft_into: need one noise variance, or one per "
                   "symbol");
  for (const double nv : noise_var) {
    OFDM_REQUIRE(nv > 0.0,
                 "demap_soft_into: noise variance must be positive");
  }
  const std::size_t nv_stride = noise_var.size() == 1 ? 0 : 1;
  const std::size_t n_bits = bits();
  out.resize(symbols.size() * n_bits);

  // Every point is (I level, Q level) / norm_, the I level set by the I
  // bits alone and the Q level by the Q bits, so a bit's class is a
  // product of one axis's class with the whole other axis. Rounded
  // addition is monotone, so the exhaustive scan's class minimum
  // min over points of fl(dI² + dQ²) is fl(min dI² + min dQ²) (in
  // either operand order): the same double, ties included. The levels
  // are read from point() so they are the points' own doubles
  // (bits_q_ == 0 gives the one Q level 0).
  double levels_i[256];
  double levels_q[256];
  for (std::size_t l = 0; l < (std::size_t{1} << bits_i_); ++l) {
    levels_i[l] = point(l << bits_q_).real();
  }
  for (std::size_t l = 0; l < (std::size_t{1} << bits_q_); ++l) {
    levels_q[l] = point(l).imag();
  }

  const auto capped = [](double d) { return std::min(d, kFarDistance); };
  for (std::size_t i = 0; i < symbols.size(); i += kSoftBlock) {
    const std::size_t n = std::min(kSoftBlock, symbols.size() - i);
    // A partial last block is padded (cells 0, variances 1); the padded
    // lanes are computed and never stored.
    double s_re[kSoftBlock] = {};
    double s_im[kSoftBlock] = {};
    double nv[kSoftBlock];
    std::fill_n(nv, kSoftBlock, 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      s_re[j] = symbols[i + j].real();
      s_im[j] = symbols[i + j].imag();
      nv[j] = noise_var[(i + j) * nv_stride];
    }
    double cls_i[8][2][kSoftBlock];
    double cls_q[8][2][kSoftBlock];
    double all_i[kSoftBlock];
    double all_q[kSoftBlock];
    axis_minima(s_re, levels_i, bits_i_, cls_i, all_i);
    axis_minima(s_im, levels_q, bits_q_, cls_q, all_q);

    for (std::size_t b = 0; b < n_bits; ++b) {
      const bool on_i = b < bits_i_;
      const double* m0 = on_i ? cls_i[b][0] : cls_q[b - bits_i_][0];
      const double* m1 = on_i ? cls_i[b][1] : cls_q[b - bits_i_][1];
      const double* other = on_i ? all_q : all_i;
      double llr[kSoftBlock];
      for (std::size_t j = 0; j < kSoftBlock; ++j) {
        llr[j] = (capped(m1[j] + other[j]) - capped(m0[j] + other[j])) /
                 nv[j];
      }
      for (std::size_t j = 0; j < n; ++j) {
        out[(i + j) * n_bits + b] = llr[j];
      }
    }
  }
}

std::string demap_mode_name(DemapMode m) {
  switch (m) {
    case DemapMode::kHard: return "hard";
    case DemapMode::kSoft: return "soft";
  }
  return "?";
}

cplx Constellation::point(std::size_t index) const {
  OFDM_REQUIRE(index < size(), "Constellation::point: index out of range");
  return lut_.empty() ? compute_point(index) : lut_[index];
}

}  // namespace ofdm::mapping
