#include "mapping/bitloading.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace ofdm::mapping {

std::size_t table_bits(const BitTable& table) {
  std::size_t total = 0;
  for (std::uint8_t b : table) total += b;
  return total;
}

BitTable compute_bit_allocation(std::span<const double> snr_db,
                                double gamma_db, std::uint8_t max_bits,
                                std::uint8_t min_bits) {
  OFDM_REQUIRE(max_bits >= 1 && max_bits <= kMaxBitsPerTone,
               "compute_bit_allocation: max_bits must be 1..15");
  const double gamma = from_db(gamma_db);
  BitTable table(snr_db.size(), 0);
  for (std::size_t i = 0; i < snr_db.size(); ++i) {
    const double cap = std::log2(1.0 + from_db(snr_db[i]) / gamma);
    auto b = static_cast<std::int64_t>(std::floor(cap));
    if (b > max_bits) b = max_bits;
    if (b < min_bits) b = 0;
    table[i] = static_cast<std::uint8_t>(b);
  }
  return table;
}

DmtMapper::DmtMapper(BitTable table)
    : table_(std::move(table)), bits_per_symbol_(table_bits(table_)) {
  OFDM_REQUIRE(!table_.empty(), "DmtMapper: empty bit table");
  for (std::uint8_t b : table_) {
    OFDM_REQUIRE(b <= kMaxBitsPerTone,
                 "DmtMapper: per-tone load must be <= 15 bits");
    // Build the constellations of the loads the table uses.
    if (b != 0 && !cache_[b]) {
      cache_[b] = Constellation::make_rect((b + 1) / 2, b / 2);
    }
  }
}

const Constellation& DmtMapper::constellation_for(std::uint8_t load) const {
  return *cache_[load];
}

void DmtMapper::map_symbol_into(std::span<const std::uint8_t> bits,
                                cvec& out) const {
  OFDM_REQUIRE_DIM(bits.size() == bits_per_symbol_,
                   "DmtMapper::map_symbol_into: wrong bit count");
  out.assign(table_.size(), cplx{0.0, 0.0});
  // Each run of tones with one load is one LUT sweep of its constellation.
  std::size_t pos = 0;
  for (std::size_t t = 0; t < table_.size();) {
    const std::uint8_t load = table_[t];
    std::size_t end = t + 1;
    while (end < table_.size() && table_[end] == load) ++end;
    if (load != 0) {
      const std::size_t n = (end - t) * load;
      constellation_for(load).map_into(
          bits.subspan(pos, n), std::span<cplx>(out).subspan(t, end - t));
      pos += n;
    }
    t = end;
  }
}

void DmtMapper::demap_symbol_into(std::span<const cplx> tones_in,
                                  bitvec& out) const {
  OFDM_REQUIRE_DIM(tones_in.size() == table_.size(),
                   "DmtMapper::demap_symbol_into: tone count mismatch");
  out.clear();
  out.reserve(bits_per_symbol_);
  for (std::size_t t = 0; t < table_.size(); ++t) {
    const std::uint8_t load = table_[t];
    if (load == 0) continue;
    constellation_for(load).demap(tones_in[t], out);
  }
}

}  // namespace ofdm::mapping
