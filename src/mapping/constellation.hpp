// Gray-coded QAM constellations.
//
// One Constellation object describes a complete bits<->symbols mapping,
// normalized to unit average energy. Square QAM (even bit counts) and
// rectangular QAM (odd bit counts, used by the DMT bit-loading path) are
// both composed from Gray-coded PAM axes.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/types.hpp"

namespace ofdm::mapping {

enum class Scheme {
  kBpsk,    ///< 1 bit, real axis
  kQpsk,    ///< 2 bits
  kQam16,   ///< 4 bits
  kQam64,   ///< 6 bits
  kQam256,  ///< 8 bits
};

/// Bits per symbol for a scheme.
std::size_t bits_per_symbol(Scheme s);
std::string scheme_name(Scheme s);

/// Demapper output selection. kHard slices to the nearest point's bits
/// (the Gray threshold path — bit-exact with the historical demapper);
/// kSoft emits max-log LLRs normalized by the noise variance.
enum class DemapMode {
  kHard,
  kSoft,
};

std::string demap_mode_name(DemapMode m);

/// A concrete constellation with Gray mapping and unit average energy.
class Constellation {
 public:
  /// Standard square constellation for a scheme (802.11a 17.3.5.7 style).
  static Constellation make(Scheme s);

  /// Rectangular QAM with `bits_i` Gray-coded bits on I and `bits_q` on Q
  /// (bits_q == 0 gives PAM). Used for DMT tones with odd bit loads.
  static Constellation make_rect(std::size_t bits_i, std::size_t bits_q);

  std::size_t bits() const { return bits_i_ + bits_q_; }
  std::size_t size() const { return std::size_t{1} << bits(); }

  /// Map `bits()` bits (MSB-significant: I bits first, then Q bits) to a
  /// symbol.
  cplx map(std::span<const std::uint8_t> bits) const;

  /// Map a whole stream (length a multiple of bits()) into a
  /// caller-owned buffer, resized to the symbol count: the
  /// no-allocation path for batched transmit.
  void map_into(std::span<const std::uint8_t> bits, cvec& out) const;

  /// map_into a caller-sized span (out.size() symbols).
  void map_into(std::span<const std::uint8_t> bits,
                std::span<cplx> out) const;

  /// Hard-decision demap of one symbol back to bits (appended to `out`).
  void demap(cplx symbol, bitvec& out) const;

  /// Hard-decision demap of a symbol stream into a caller-owned buffer
  /// (overwritten; keeps its capacity across calls).
  void demap_into(std::span<const cplx> symbols, bitvec& out) const;

  /// Max-log soft demap of a symbol stream into a caller-owned buffer
  /// (resized to symbols.size() * bits()): one LLR per bit, I bits
  /// first, with the convention llr > 0 => bit 0 more likely,
  ///   LLR = (min(d1², 1e300) - min(d0², 1e300)) / noise_var
  /// where d_b is the distance to the nearest point whose bit equals b
  /// (a NaN symbol gives 0). `noise_var` holds one variance for the
  /// whole stream or one per symbol (the per-tone equalizer weighting);
  /// every variance must be positive. The search runs per axis, which
  /// gives exactly the doubles of a scan over every point.
  void demap_soft_into(std::span<const cplx> symbols,
                       std::span<const double> noise_var,
                       rvec& out) const;

  /// The point a given bit pattern maps to (index = bits as an integer,
  /// I bits in the high positions). map() is point() of its bits, and
  /// the LUT is point() tabulated, so every path gives the same value.
  cplx point(std::size_t index) const;

  /// sqrt of unnormalized average energy: the K_MOD scale denominator.
  double norm_factor() const { return norm_; }

 private:
  Constellation(std::size_t bits_i, std::size_t bits_q);

  static int gray_to_level(std::size_t gray_bits, std::size_t n_bits);
  static std::size_t level_to_gray(double value, std::size_t n_bits);
  cplx compute_point(std::size_t index) const;
  void demap_scaled(cplx scaled, bitvec& out) const;

  std::size_t bits_i_;
  std::size_t bits_q_;
  double norm_;
  cvec lut_;  // point table indexed by the symbol's bits (MSB-first);
              // empty above kLutMaxBits, where map() computes directly
};

}  // namespace ofdm::mapping
