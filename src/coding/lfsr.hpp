// Linear-feedback shift registers and the scramblers built from them.
//
// Every standard in the OFDM family randomizes its bit stream with an
// additive (synchronous) scrambler defined by an LFSR polynomial; the
// Mother Model treats the polynomial, register length and seed as plain
// reconfiguration parameters.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace ofdm::coding {

/// Fibonacci LFSR over GF(2).
///
/// The polynomial is given by a tap mask: bit i set means the register
/// cell holding the input delayed by (i+1) steps feeds the XOR sum, so
/// x^7 + x^4 + 1 (the 802.11a scrambler) is mask (1<<6)|(1<<3).
///
/// The output obeys o[n] = XOR over taps i of o[n-1-i], so the next d
/// outputs, d the smallest tap delay, depend only on bits already made:
/// the register advances a chunk of d bits per step, with shifts and
/// XORs on one history word (DESIGN.md §18).
class Lfsr {
 public:
  /// `degree` is the register length (1..63); `taps` the feedback mask;
  /// `seed` the initial register contents (bit i = cell with delay i+1).
  /// The seed must be non-zero or the sequence degenerates to all zeros.
  Lfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed);

  /// The next n (0..64) PRBS bits, the first in the most significant of
  /// the n low bit positions.
  std::uint64_t next(unsigned n);

  /// XOR the next bits.size() PRBS bits into a one-bit-per-byte stream
  /// (each byte becomes (byte ^ prbs) & 1).
  void apply(std::span<std::uint8_t> bits);

  /// Append n PRBS bits to a one-bit-per-byte stream.
  void append(bitvec& out, std::size_t n);

  /// Generate n PRBS bits.
  bitvec sequence(std::size_t n);

  /// Reset to a new seed.
  void reset(std::uint64_t seed);

  /// The register contents (bit i = the output made i+1 steps ago).
  std::uint64_t state() const {
    return hist_ & ((std::uint64_t{1} << degree_) - 1);
  }
  unsigned degree() const { return degree_; }

 private:
  /// Write n keystream bits to dst, XORed into its bytes when `mix`.
  void emit(std::uint8_t* dst, std::size_t n, bool mix);

  unsigned degree_;
  std::uint64_t taps_;
  unsigned chunk_;           ///< bits per step: the smallest tap delay
  std::uint64_t wide_taps_;  ///< taps_ with every delay scaled by 2^k
  unsigned wide_chunk_;      ///< chunk_ scaled the same way
  std::uint64_t ramp_;       ///< outputs before the wide recurrence holds
  std::uint64_t made_ = 0;   ///< outputs since reset, counted up to ramp_
  std::uint64_t hist_;       ///< bit j = the output made j+1 steps ago
};

/// Additive (synchronous) scrambler: out = in XOR PRBS. Descrambling is
/// the identical operation with the same seed, so one class serves both.
class Scrambler {
 public:
  Scrambler(unsigned degree, std::uint64_t taps, std::uint64_t seed);

  /// Scramble/descramble a bit stream (stateful across calls).
  bitvec process(std::span<const std::uint8_t> bits);

  /// process() in place.
  void apply(std::span<std::uint8_t> bits) { lfsr_.apply(bits); }

  /// Restart the PRBS from a seed (default: the construction seed).
  void reset();
  void reset(std::uint64_t seed);

 private:
  Lfsr lfsr_;
  std::uint64_t seed0_;
};

/// The IEEE 802.11a frame-synchronous scrambler, x^7 + x^4 + 1.
/// `seed` is the 7-bit initial state (Annex G example uses 1011101b).
Scrambler make_wlan_scrambler(std::uint64_t seed = 0x5D);

/// DVB-style energy-dispersal PRBS, x^15 + x^14 + 1, init 100101010000000b.
Scrambler make_dvb_scrambler();

/// HomePlug 1.0 data scrambler, x^10 + x^3 + 1, all-ones init.
Scrambler make_homeplug_scrambler();

}  // namespace ofdm::coding
