#include "common/bits.hpp"

#include "common/error.hpp"

namespace ofdm {

bitvec bytes_to_bits_msb(std::span<const std::uint8_t> bytes) {
  bitvec bits;
  bytes_to_bits_msb_into(bytes, bits);
  return bits;
}

void bytes_to_bits_msb_into(std::span<const std::uint8_t> bytes,
                            bitvec& out) {
  out.clear();
  out.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>((b >> i) & 1u));
    }
  }
}

bitvec bytes_to_bits_lsb(std::span<const std::uint8_t> bytes) {
  bitvec bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 0; i < 8; ++i) {
      bits.push_back(static_cast<std::uint8_t>((b >> i) & 1u));
    }
  }
  return bits;
}

bytevec bits_to_bytes_msb(std::span<const std::uint8_t> bits) {
  bytevec bytes;
  bits_to_bytes_msb_into(bits, bytes);
  return bytes;
}

void bits_to_bytes_msb_into(std::span<const std::uint8_t> bits,
                            bytevec& out) {
  OFDM_REQUIRE_DIM(bits.size() % 8 == 0,
                   "bits_to_bytes_msb: bit count must be a multiple of 8");
  out.assign(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out[i / 8] = static_cast<std::uint8_t>((out[i / 8] << 1) | (bits[i] & 1u));
  }
}

bytevec bits_to_bytes_lsb(std::span<const std::uint8_t> bits) {
  OFDM_REQUIRE_DIM(bits.size() % 8 == 0,
                   "bits_to_bytes_lsb: bit count must be a multiple of 8");
  bytevec bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1u) << (i % 8));
  }
  return bytes;
}

std::uint64_t bits_to_uint(std::span<const std::uint8_t> bits,
                           std::size_t pos, std::size_t n) {
  OFDM_REQUIRE_DIM(n <= 64 && pos + n <= bits.size(),
                   "bits_to_uint: range out of bounds");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v = (v << 1) | (bits[pos + i] & 1u);
  }
  return v;
}

void append_uint(bitvec& out, std::uint64_t value, std::size_t n) {
  OFDM_REQUIRE_DIM(n <= 64, "append_uint: at most 64 bits");
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>((value >> (n - 1 - i)) & 1u));
  }
}

std::string to_string(std::span<const std::uint8_t> bits) {
  std::string s;
  s.reserve(bits.size());
  for (std::uint8_t b : bits) s.push_back(b ? '1' : '0');
  return s;
}

bitvec bits_from_string(const std::string& s) {
  bitvec bits;
  bits.reserve(s.size());
  for (char c : s) {
    if (c == '0') bits.push_back(0);
    if (c == '1') bits.push_back(1);
  }
  return bits;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  OFDM_REQUIRE_DIM(a.size() == b.size(),
                   "hamming_distance: spans must be equal length");
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & 1u) != (b[i] & 1u)) ++d;
  }
  return d;
}

}  // namespace ofdm
