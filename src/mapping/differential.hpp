// Differential phase mapping. DAB transmits pi/4-shifted DQPSK and
// HomePlug 1.0 uses DBPSK/DQPSK, both differential *in time per carrier*:
// the information is carried in the phase change between consecutive OFDM
// symbols on the same subcarrier. The mapper therefore keeps one reference
// phase per carrier.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.hpp"

namespace ofdm::mapping {

enum class DiffKind {
  kDbpsk,     ///< 1 bit/symbol:  0 -> +0,   1 -> +pi
  kDqpsk,     ///< 2 bits/symbol: Gray dibit -> {0, pi/2, pi, 3pi/2}
  kPi4Dqpsk,  ///< DQPSK with an extra +pi/4 rotation every symbol (DAB)
};

std::size_t diff_bits_per_symbol(DiffKind kind);

/// Differential mapper over `carriers` parallel streams.
class DifferentialMapper {
 public:
  DifferentialMapper(DiffKind kind, std::size_t carriers);

  DiffKind kind() const { return kind_; }
  std::size_t carriers() const { return carriers_; }
  std::size_t bits_per_ofdm_symbol() const {
    return carriers_ * diff_bits_per_symbol(kind_);
  }

  /// Reset all carrier references to the given phase-reference symbol
  /// vector (e.g. DAB's phase reference symbol), size == carriers().
  void reset(std::span<const cplx> reference);

  /// Reset to the all-(1+0j) reference.
  void reset();

  /// Map one OFDM symbol worth of bits onto all carriers: writes the new
  /// complex value per carrier into a caller-owned buffer (resized to
  /// carriers(); keeps its capacity across calls) and advances the
  /// internal reference.
  void map_symbol_into(std::span<const std::uint8_t> bits, cvec& out);

  /// The demapper counterpart: recover bits from the phase change between
  /// the stored reference and `received` into a caller-owned buffer
  /// (overwritten; keeps its capacity across calls), then advance the
  /// reference.
  void demap_symbol_into(std::span<const cplx> received, bitvec& out);

 private:
  double phase_increment(std::span<const std::uint8_t> bits,
                         std::size_t offset) const;
  std::size_t decide_bits(double dphase, bitvec& out) const;

  DiffKind kind_;
  std::size_t carriers_;
  cvec ref_;
};

}  // namespace ofdm::mapping
