#include "coding/convolutional.hpp"

#include <bit>
#include <string>

#include "common/error.hpp"

namespace ofdm::coding {

ConvCode k7_industry_code() { return ConvCode{}; }

std::size_t PuncturePattern::kept_per_period() const {
  std::size_t n = 0;
  for (const auto& stream : keep) {
    for (std::uint8_t k : stream) n += k;
  }
  return n;
}

PuncturePattern puncture_none(unsigned num_outputs) {
  PuncturePattern p;
  p.keep.assign(num_outputs, {1});
  return p;
}

PuncturePattern puncture_2_3() {
  // 802.11a rate 2/3: keep A1 A2, keep B1, steal B2.
  return PuncturePattern{{{1, 1}, {1, 0}}};
}

PuncturePattern puncture_3_4() {
  // 802.11a rate 3/4: keep A1 B1 A2, steal B2 A3, keep B3.
  return PuncturePattern{{{1, 0, 1}, {1, 1, 0}}};
}

void validate(const ConvCode& code) {
  const unsigned k = code.constraint_length;
  OFDM_REQUIRE(k >= 2 && k <= 9,
               "ConvCode: fec.conv.k must be in 2..9, got " +
                   std::to_string(k));
  OFDM_REQUIRE(!code.generators.empty() && code.generators.size() <= 4,
               "ConvCode: fec.conv.generators needs 1..4 generators, got " +
                   std::to_string(code.generators.size()));
  for (std::uint32_t g : code.generators) {
    OFDM_REQUIRE(g != 0 && (g >> k) == 0,
                 "ConvCode: fec.conv.generators entry " + std::to_string(g) +
                     " must be non-zero and below 2^K");
  }
}

ConvEncoder::ConvEncoder(ConvCode code) : code_(std::move(code)) {
  validate(code_);
}

bitvec ConvEncoder::encode(std::span<const std::uint8_t> bits) const {
  const unsigned kk = code_.constraint_length;
  bitvec out;
  out.reserve(bits.size() * code_.generators.size());
  std::uint32_t window = 0;  // bit (kk-1) = current input, bit 0 = oldest
  for (std::uint8_t b : bits) {
    window = (window >> 1) |
             (static_cast<std::uint32_t>(b & 1u) << (kk - 1));
    for (std::uint32_t g : code_.generators) {
      out.push_back(static_cast<std::uint8_t>(
          std::popcount(window & g) & 1));
    }
  }
  return out;
}

bitvec ConvEncoder::encode_terminated(std::span<const std::uint8_t> bits) const {
  bitvec padded(bits.begin(), bits.end());
  padded.insert(padded.end(), code_.constraint_length - 1, 0);
  return encode(padded);
}

void ConvEncoder::encode_punctured_into(std::span<const std::uint8_t> bits,
                                        const PuncturePattern& pattern,
                                        bitvec& out) const {
  const unsigned kk = code_.constraint_length;
  const std::size_t streams = code_.generators.size();
  const std::size_t period = pattern.period();
  OFDM_REQUIRE(pattern.keep.size() == streams && period > 0,
               "encode_punctured_into: one keep mask per generator");
  const std::size_t steps = bits.size() + kk - 1;
  out.clear();
  out.reserve(steps * streams);
  std::uint32_t window = 0;  // bit (kk-1) = current input, bit 0 = oldest
  std::size_t phase = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    // The K-1 tail steps shift zeros in, terminating the trellis.
    const std::uint32_t b = t < bits.size() ? (bits[t] & 1u) : 0u;
    window = (window >> 1) | (b << (kk - 1));
    for (std::size_t j = 0; j < streams; ++j) {
      if (pattern.keep[j][phase]) {
        out.push_back(static_cast<std::uint8_t>(
            std::popcount(window & code_.generators[j]) & 1));
      }
    }
    phase = (phase + 1) % period;
  }
}

bitvec puncture(std::span<const std::uint8_t> coded,
                const PuncturePattern& pattern) {
  const std::size_t streams = pattern.keep.size();
  const std::size_t period = pattern.period();
  OFDM_REQUIRE(streams > 0 && period > 0, "puncture: empty pattern");
  OFDM_REQUIRE_DIM(coded.size() % streams == 0,
                   "puncture: coded length not a multiple of stream count");
  bitvec out;
  out.reserve(coded.size());
  std::size_t phase = 0;
  for (std::size_t i = 0; i < coded.size(); i += streams) {
    for (std::size_t j = 0; j < streams; ++j) {
      if (pattern.keep[j][phase]) out.push_back(coded[i + j]);
    }
    phase = (phase + 1) % period;
  }
  return out;
}

namespace {

// The shared depuncture walk: kept positions take the next punctured
// value, stolen ones the erasure value.
template <typename T>
void depuncture_walk(std::span<const T> punctured,
                     const PuncturePattern& pattern,
                     std::size_t coded_len_mother, T erasure,
                     const char* who, std::vector<T>& out) {
  const std::size_t streams = pattern.keep.size();
  const std::size_t period = pattern.period();
  OFDM_REQUIRE(streams > 0 && period > 0,
               std::string(who) + ": empty pattern");
  OFDM_REQUIRE_DIM(coded_len_mother % streams == 0,
                   std::string(who) +
                       ": mother length not a multiple of streams");
  out.clear();
  out.reserve(coded_len_mother);
  std::size_t phase = 0;
  std::size_t src = 0;
  for (std::size_t i = 0; i < coded_len_mother; i += streams) {
    for (std::size_t j = 0; j < streams; ++j) {
      if (pattern.keep[j][phase]) {
        OFDM_REQUIRE_DIM(src < punctured.size(),
                         std::string(who) + ": punctured stream too short");
        out.push_back(punctured[src++]);
      } else {
        out.push_back(erasure);
      }
    }
    phase = (phase + 1) % period;
  }
  OFDM_REQUIRE_DIM(src == punctured.size(),
                   std::string(who) + ": punctured stream too long");
}

}  // namespace

void depuncture_into(std::span<const std::uint8_t> punctured,
                     const PuncturePattern& pattern,
                     std::size_t coded_len_mother, bitvec& out) {
  depuncture_walk(punctured, pattern, coded_len_mother, kErasure,
                  "depuncture_into", out);
}

void depuncture_soft_into(std::span<const double> punctured,
                          const PuncturePattern& pattern,
                          std::size_t coded_len_mother,
                          std::vector<double>& out) {
  depuncture_walk(punctured, pattern, coded_len_mother, 0.0,
                  "depuncture_soft_into", out);
}

}  // namespace ofdm::coding
