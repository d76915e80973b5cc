// Bit-stream utilities: packing, unpacking, conversions between the unpacked
// bitvec representation used by the coding pipeline and packed bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/types.hpp"

namespace ofdm {

/// Unpack bytes into bits, MSB of each byte first (transport-stream order).
bitvec bytes_to_bits_msb(std::span<const std::uint8_t> bytes);

/// bytes_to_bits_msb into a caller-owned buffer (overwritten; keeps its
/// capacity across calls).
void bytes_to_bits_msb_into(std::span<const std::uint8_t> bytes,
                            bitvec& out);

/// Unpack bytes into bits, LSB of each byte first (802.11 PSDU order).
bitvec bytes_to_bits_lsb(std::span<const std::uint8_t> bytes);

/// Pack bits (MSB first) into bytes. Bit count must be a multiple of 8.
bytevec bits_to_bytes_msb(std::span<const std::uint8_t> bits);

/// bits_to_bytes_msb into a caller-owned buffer (overwritten).
void bits_to_bytes_msb_into(std::span<const std::uint8_t> bits,
                            bytevec& out);

/// Pack bits (LSB first) into bytes. Bit count must be a multiple of 8.
bytevec bits_to_bytes_lsb(std::span<const std::uint8_t> bits);

/// Read an unsigned value from `n` bits starting at `pos`, MSB first.
std::uint64_t bits_to_uint(std::span<const std::uint8_t> bits,
                           std::size_t pos, std::size_t n);

/// Append `n` bits of `value` to `out`, MSB first.
void append_uint(bitvec& out, std::uint64_t value, std::size_t n);

/// Render a bit span as a '0'/'1' string (debugging, test vectors).
std::string to_string(std::span<const std::uint8_t> bits);

/// Parse a '0'/'1' string into bits; non-binary characters are skipped,
/// which lets test vectors contain spaces for readability.
bitvec bits_from_string(const std::string& s);

/// Count positions where two equal-length bit spans differ (Hamming).
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

}  // namespace ofdm
