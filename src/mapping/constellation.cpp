#include "mapping/constellation.hpp"

#include <algorithm>
#include <cmath>

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

cvec Constellation::map_all(std::span<const std::uint8_t> bits) const {
  cvec out;
  map_into(bits, out);
  return out;
}

void Constellation::map_into(std::span<const std::uint8_t> bits,
                             cvec& out) const {
  const std::size_t bps = this->bits();
  OFDM_REQUIRE_DIM(bits.size() % bps == 0,
                   "Constellation::map_all: bit count not a multiple of "
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

bitvec Constellation::demap_all(std::span<const cplx> symbols) const {
  bitvec out;
  demap_into(symbols, out);
  return out;
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

const cplx* Constellation::soft_points(cvec& scratch) const {
  // The LUT built at construction is exactly the max-log point table
  // (index = the symbol's bits). Above kLutMaxBits (the 1 MiB-per-
  // instance rectangular extremes) compute it on demand.
  if (!lut_.empty()) return lut_.data();
  scratch.resize(size());
  for (std::size_t i = 0; i < scratch.size(); ++i) scratch[i] = point(i);
  return scratch.data();
}

void Constellation::demap_soft(cplx symbol, double noise_var,
                               rvec& out) const {
  OFDM_REQUIRE(noise_var > 0.0,
               "demap_soft: noise variance must be positive");
  cvec scratch;
  const cplx* points = soft_points(scratch);
  const std::size_t base = out.size();
  out.resize(base + bits());
  simd::kernels().demap_soft(&symbol, 1, points, size(), bits(),
                             &noise_var, 0, out.data() + base);
}

rvec Constellation::demap_soft_all(std::span<const cplx> symbols,
                                   double noise_var) const {
  rvec out;
  demap_soft_into(symbols, noise_var, out);
  return out;
}

void Constellation::demap_soft_into(std::span<const cplx> symbols,
                                    double noise_var, rvec& out) const {
  OFDM_REQUIRE(noise_var > 0.0,
               "demap_soft_all: noise variance must be positive");
  cvec scratch;
  const cplx* points = soft_points(scratch);
  out.resize(symbols.size() * bits());
  simd::kernels().demap_soft(symbols.data(), symbols.size(), points,
                             size(), bits(), &noise_var, 0, out.data());
}

void Constellation::demap_soft_into(std::span<const cplx> symbols,
                                    std::span<const double> noise_var,
                                    rvec& out) const {
  OFDM_REQUIRE_DIM(noise_var.size() == symbols.size(),
                   "demap_soft_into: need one noise variance per symbol");
  for (const double nv : noise_var) {
    OFDM_REQUIRE(nv > 0.0,
                 "demap_soft_into: noise variance must be positive");
  }
  cvec scratch;
  const cplx* points = soft_points(scratch);
  out.resize(symbols.size() * bits());
  simd::kernels().demap_soft(symbols.data(), symbols.size(), points,
                             size(), bits(), noise_var.data(), 1,
                             out.data());
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
