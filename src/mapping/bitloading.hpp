// DMT bit loading for the wireline members of the family (ADSL, ADSL2+,
// VDSL). Each tone carries an independently sized QAM constellation; the
// per-tone bit table is part of the Mother Model's reconfiguration state.
//
// Odd bit loads use rectangular QAM (ceil(b/2) bits on I, floor(b/2) on
// Q). G.992.1 specifies cross constellations for odd b >= 5; rectangular
// QAM carries the same bit count with slightly higher peak power, which
// is irrelevant to the co-modeling experiments — see DESIGN.md.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "mapping/constellation.hpp"

namespace ofdm::mapping {

/// Per-tone bit allocation. 0 = tone unused; valid loads are 1..15 bits.
using BitTable = std::vector<std::uint8_t>;

inline constexpr std::uint8_t kMaxBitsPerTone = 15;

/// Total payload bits carried by one DMT symbol under this table.
std::size_t table_bits(const BitTable& table);

/// Chow-style allocation from a per-tone SNR estimate:
/// b_i = floor(log2(1 + snr_i / gamma)), clamped to [0, max_bits], with
/// b_i = 0 when the tone cannot support `min_bits`.
BitTable compute_bit_allocation(std::span<const double> snr_db,
                                double gamma_db,
                                std::uint8_t max_bits = kMaxBitsPerTone,
                                std::uint8_t min_bits = 2);

/// Maps a serial bit stream across the tones of one DMT symbol according
/// to a bit table, producing one complex value per tone (unused tones get
/// zero). Constellations are built once per bit-load value in the table.
class DmtMapper {
 public:
  explicit DmtMapper(BitTable table);

  const BitTable& table() const { return table_; }
  std::size_t tones() const { return table_.size(); }
  std::size_t bits_per_symbol() const { return bits_per_symbol_; }

  /// Map exactly bits_per_symbol() bits onto tones() complex values in a
  /// caller-owned buffer (overwritten; keeps its capacity across calls).
  void map_symbol_into(std::span<const std::uint8_t> bits, cvec& out) const;

  /// Hard demap of tones() values back to bits_per_symbol() bits in a
  /// caller-owned buffer (overwritten; keeps its capacity across calls).
  void demap_symbol_into(std::span<const cplx> tones_in, bitvec& out) const;

 private:
  const Constellation& constellation_for(std::uint8_t load) const;

  BitTable table_;
  std::size_t bits_per_symbol_;
  // index = bit load; only the loads the table uses are built
  std::array<std::optional<Constellation>, kMaxBitsPerTone + 1> cache_;
};

}  // namespace ofdm::mapping
