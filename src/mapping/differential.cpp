#include "mapping/differential.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ofdm::mapping {

std::size_t diff_bits_per_symbol(DiffKind kind) {
  return kind == DiffKind::kDbpsk ? 1 : 2;
}

DifferentialMapper::DifferentialMapper(DiffKind kind, std::size_t carriers)
    : kind_(kind), carriers_(carriers) {
  OFDM_REQUIRE(carriers >= 1,
               "DifferentialMapper: need at least one carrier");
  reset();
}

void DifferentialMapper::reset(std::span<const cplx> reference) {
  OFDM_REQUIRE_DIM(reference.size() == carriers_,
                   "DifferentialMapper::reset: reference size mismatch");
  ref_.assign(reference.begin(), reference.end());
}

void DifferentialMapper::reset() {
  ref_.assign(carriers_, cplx{1.0, 0.0});
}

double DifferentialMapper::phase_increment(
    std::span<const std::uint8_t> bits, std::size_t offset) const {
  switch (kind_) {
    case DiffKind::kDbpsk:
      return bits[offset] ? kPi : 0.0;
    case DiffKind::kDqpsk:
    case DiffKind::kPi4Dqpsk: {
      // Gray-coded dibit -> quadrant increment.
      const std::uint8_t b0 = bits[offset];
      const std::uint8_t b1 = bits[offset + 1];
      double inc = 0.0;
      if (b0 == 0 && b1 == 0) inc = 0.0;
      if (b0 == 0 && b1 == 1) inc = kPi / 2.0;
      if (b0 == 1 && b1 == 1) inc = kPi;
      if (b0 == 1 && b1 == 0) inc = 3.0 * kPi / 2.0;
      if (kind_ == DiffKind::kPi4Dqpsk) inc += kPi / 4.0;
      return inc;
    }
  }
  return 0.0;
}

std::size_t DifferentialMapper::decide_bits(double dphase,
                                            bitvec& out) const {
  // Fold to [0, 2pi).
  double p = std::fmod(dphase, kTwoPi);
  if (p < 0.0) p += kTwoPi;
  switch (kind_) {
    case DiffKind::kDbpsk:
      out.push_back(static_cast<std::uint8_t>(
          (p > kPi / 2.0 && p < 3.0 * kPi / 2.0) ? 1 : 0));
      return 1;
    case DiffKind::kPi4Dqpsk:
      p -= kPi / 4.0;
      if (p < 0.0) p += kTwoPi;
      [[fallthrough]];
    case DiffKind::kDqpsk: {
      // Nearest of {0, pi/2, pi, 3pi/2}.
      const int q = static_cast<int>(
                        std::floor(p / (kPi / 2.0) + 0.5)) % 4;
      static constexpr std::uint8_t kGray[4][2] = {
          {0, 0}, {0, 1}, {1, 1}, {1, 0}};
      out.push_back(kGray[q][0]);
      out.push_back(kGray[q][1]);
      return 2;
    }
  }
  return 0;
}

void DifferentialMapper::map_symbol_into(std::span<const std::uint8_t> bits,
                                         cvec& out) {
  OFDM_REQUIRE_DIM(bits.size() == bits_per_ofdm_symbol(),
                   "DifferentialMapper::map_symbol_into: wrong bit count");
  const std::size_t bps = diff_bits_per_symbol(kind_);
  out.resize(carriers_);
  for (std::size_t c = 0; c < carriers_; ++c) {
    const double inc = phase_increment(bits, c * bps);
    const cplx rot{std::cos(inc), std::sin(inc)};
    out[c] = ref_[c] * rot;
    ref_[c] = out[c];
  }
}

void DifferentialMapper::demap_symbol_into(std::span<const cplx> received,
                                           bitvec& out) {
  OFDM_REQUIRE_DIM(received.size() == carriers_,
                   "DifferentialMapper::demap_symbol_into: size mismatch");
  out.clear();
  out.reserve(bits_per_ofdm_symbol());
  for (std::size_t c = 0; c < carriers_; ++c) {
    const double dphase =
        std::arg(received[c] * std::conj(ref_[c]));
    decide_bits(dphase, out);
    ref_[c] = received[c];
  }
}

}  // namespace ofdm::mapping
