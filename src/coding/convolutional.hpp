// Convolutional encoding with puncturing. The 802.11a/g, 802.16a, DVB-T
// and DAB members of the family all use the same industry-standard K=7
// mother code (171, 133 octal); the code rate is a reconfiguration
// parameter realized by puncturing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace ofdm::coding {

/// Description of a rate-1/n convolutional code.
///
/// Generators use the textbook octal convention: for constraint length K,
/// bit (K-1) of a generator taps the current input bit (D^0) and bit 0
/// taps the oldest (D^{K-1}).
struct ConvCode {
  unsigned constraint_length = 7;
  std::vector<std::uint32_t> generators = {0133, 0171};

  unsigned num_outputs() const {
    return static_cast<unsigned>(generators.size());
  }
  std::size_t num_states() const {
    return std::size_t{1} << (constraint_length - 1);
  }
};

/// Throw ConfigError unless 2 <= K <= 9 (at most 256 trellis states),
/// there are 1..4 generators, and each is non-zero and below 2^K.
void validate(const ConvCode& code);

/// The 802.11a / DVB-T / DAB mother code: K=7, g = (133, 171) octal.
ConvCode k7_industry_code();

/// Puncturing pattern: a per-output-stream keep mask applied cyclically.
/// pattern[j][p] == 1 keeps output j at puncture phase p.
struct PuncturePattern {
  std::vector<std::vector<std::uint8_t>> keep;

  std::size_t period() const { return keep.empty() ? 0 : keep[0].size(); }
  /// Coded bits kept per period across all streams.
  std::size_t kept_per_period() const;
};

/// Rate 1/2 (no puncturing), 2/3 and 3/4 patterns from IEEE 802.11a-1999.
PuncturePattern puncture_none(unsigned num_outputs = 2);
PuncturePattern puncture_2_3();
PuncturePattern puncture_3_4();

/// Convolutional encoder. Stateless-per-call: encode() starts from the
/// zero state and the caller appends (K-1) tail bits if termination is
/// wanted (the standards do; see `encode_terminated`).
class ConvEncoder {
 public:
  explicit ConvEncoder(ConvCode code);

  /// Encode bits; output is interleaved across generator streams
  /// (A1 B1 A2 B2 ... for a rate-1/2 code).
  bitvec encode(std::span<const std::uint8_t> bits) const;

  /// Encode with (K-1) zero tail bits appended, driving the trellis back
  /// to the zero state.
  bitvec encode_terminated(std::span<const std::uint8_t> bits) const;

  /// puncture(encode_terminated(bits), pattern) in one pass, into a
  /// caller-owned buffer (overwritten; keeps its capacity). The pattern
  /// has one keep mask per generator.
  void encode_punctured_into(std::span<const std::uint8_t> bits,
                             const PuncturePattern& pattern,
                             bitvec& out) const;

  const ConvCode& code() const { return code_; }

 private:
  ConvCode code_;
};

/// Apply a puncturing pattern to an encoder output stream.
bitvec puncture(std::span<const std::uint8_t> coded,
                const PuncturePattern& pattern);

/// Marks inserted by depuncture_into() where bits were stolen. The
/// Viterbi decoder treats this value as an erasure (no metric
/// contribution).
inline constexpr std::uint8_t kErasure = 2;

/// Re-insert erasure marks so the stream regains mother-code geometry,
/// into a caller-owned buffer (overwritten; keeps its capacity across
/// calls). `coded_len_mother` is the unpunctured length the decoder
/// expects. The soft counterpart marks stolen positions with LLR 0 (a
/// perfect erasure under the soft Viterbi's correlation metric).
void depuncture_into(std::span<const std::uint8_t> punctured,
                     const PuncturePattern& pattern,
                     std::size_t coded_len_mother, bitvec& out);
void depuncture_soft_into(std::span<const double> punctured,
                          const PuncturePattern& pattern,
                          std::size_t coded_len_mother,
                          std::vector<double>& out);

}  // namespace ofdm::coding
