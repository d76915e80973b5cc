#include "coding/lfsr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace ofdm::coding {

namespace {

// hist_ << k and out << k need k < 64.
constexpr unsigned kMaxChunk = 63;

// kSpread[v]: the eight bits of v, most significant first, one per byte
// in memory order, so one 8-byte store writes eight stream bits.
struct Spread {
  std::uint64_t v[256];
  constexpr Spread() : v() {
    for (unsigned x = 0; x < 256; ++x) {
      std::array<std::uint8_t, 8> bytes{};
      for (unsigned j = 0; j < 8; ++j) {
        bytes[j] = static_cast<std::uint8_t>((x >> (7 - j)) & 1u);
      }
      v[x] = std::bit_cast<std::uint64_t>(bytes);
    }
  }
};
constexpr Spread kSpread;

}  // namespace

Lfsr::Lfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed)
    : degree_(degree), taps_(taps), hist_(seed) {
  OFDM_REQUIRE(degree >= 1 && degree <= 63, "Lfsr: degree must be in 1..63");
  const std::uint64_t mask = (std::uint64_t{1} << degree) - 1;
  OFDM_REQUIRE((taps & ~mask) == 0, "Lfsr: tap mask exceeds degree");
  OFDM_REQUIRE((seed & mask) != 0, "Lfsr: seed must be non-zero");
  hist_ &= mask;

  // Squaring the feedback polynomial over GF(2) doubles every delay, so
  // o[n] = XOR over taps of o[n - s(i+1)] for any power of two s, once n
  // is past (s-1) times the largest delay. Take the largest s whose
  // delays still fit the 64-bit history: the smallest delay, and with it
  // the chunk, grows s-fold.
  const unsigned lo = static_cast<unsigned>(std::countr_zero(taps)) + 1;
  const unsigned hi =
      std::max(64u - static_cast<unsigned>(std::countl_zero(taps)), 1u);
  unsigned s = 1;
  while (2 * s * hi <= 64) s *= 2;
  wide_taps_ = 0;
  for (std::uint64_t t = taps; t != 0; t &= t - 1) {
    const unsigned delay = static_cast<unsigned>(std::countr_zero(t)) + 1;
    wide_taps_ |= std::uint64_t{1} << (s * delay - 1);
  }
  chunk_ = std::min(lo, kMaxChunk);
  wide_chunk_ = std::min(s * lo, kMaxChunk);
  ramp_ = std::uint64_t{s - 1} * hi;
}

std::uint64_t Lfsr::next(unsigned n) {
  std::uint64_t out = 0;
  while (n > 0) {
    // The chunk's k bits each reach back at least one step past the
    // chunk, so all of them come from hist_ at once.
    const bool wide = made_ >= ramp_;
    const unsigned k = std::min(n, wide ? wide_chunk_ : chunk_);
    std::uint64_t c = 0;
    for (std::uint64_t t = wide ? wide_taps_ : taps_; t != 0; t &= t - 1) {
      c ^= hist_ >> (static_cast<unsigned>(std::countr_zero(t)) + 1 - k);
    }
    c &= (std::uint64_t{1} << k) - 1;
    hist_ = (hist_ << k) | c;
    out = (out << k) | c;
    if (!wide) made_ += k;
    n -= k;
  }
  return out;
}

void Lfsr::emit(std::uint8_t* dst, std::size_t n, bool mix) {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
  for (; n >= 64; n -= 64) {
    const std::uint64_t w = next(64);
    for (int shift = 56; shift >= 0; shift -= 8, dst += 8) {
      std::uint64_t v = kSpread.v[(w >> shift) & 0xFF];
      if (mix) {
        std::uint64_t d;
        std::memcpy(&d, dst, sizeof d);
        v = (v ^ d) & kLowBits;
      }
      std::memcpy(dst, &v, sizeof v);
    }
  }
  const auto k = static_cast<unsigned>(n);
  const std::uint64_t w = next(k);
  for (unsigned i = 0; i < k; ++i) {
    const auto bit = static_cast<std::uint8_t>((w >> (k - 1 - i)) & 1u);
    dst[i] = mix ? static_cast<std::uint8_t>((dst[i] ^ bit) & 1u) : bit;
  }
}

void Lfsr::apply(std::span<std::uint8_t> bits) {
  emit(bits.data(), bits.size(), /*mix=*/true);
}

void Lfsr::append(bitvec& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  emit(out.data() + at, n, /*mix=*/false);
}

bitvec Lfsr::sequence(std::size_t n) {
  bitvec out;
  append(out, n);
  return out;
}

void Lfsr::reset(std::uint64_t seed) {
  const std::uint64_t mask = (std::uint64_t{1} << degree_) - 1;
  OFDM_REQUIRE((seed & mask) != 0, "Lfsr::reset: seed must be non-zero");
  hist_ = seed & mask;
  made_ = 0;
}

Scrambler::Scrambler(unsigned degree, std::uint64_t taps, std::uint64_t seed)
    : lfsr_(degree, taps, seed), seed0_(seed) {}

bitvec Scrambler::process(std::span<const std::uint8_t> bits) {
  bitvec out(bits.begin(), bits.end());
  lfsr_.apply(out);
  return out;
}

void Scrambler::reset() { lfsr_.reset(seed0_); }
void Scrambler::reset(std::uint64_t seed) { lfsr_.reset(seed); }

Scrambler make_wlan_scrambler(std::uint64_t seed) {
  // x^7 + x^4 + 1: cells with delays 7 and 4 feed back.
  return Scrambler(7, (1u << 6) | (1u << 3), seed);
}

Scrambler make_dvb_scrambler() {
  // x^15 + x^14 + 1, initialization sequence 100101010000000 (EN 300 744).
  // Register bit i holds delay i+1, so the leftmost '1' of the init string
  // (delay 1) is bit 0.
  // init string (delay 1..15): 1,0,0,1,0,1,0,1,0,0,0,0,0,0,0
  std::uint64_t seed = 0;
  const int init[15] = {1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 15; ++i) {
    if (init[i]) seed |= std::uint64_t{1} << i;
  }
  return Scrambler(15, (std::uint64_t{1} << 14) | (std::uint64_t{1} << 13),
                   seed);
}

Scrambler make_homeplug_scrambler() {
  // x^10 + x^3 + 1, all-ones initialization (HomePlug 1.0 PHY spec).
  return Scrambler(10, (1u << 9) | (1u << 2), (1u << 10) - 1);
}

}  // namespace ofdm::coding
