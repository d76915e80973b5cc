// Viterbi decoder for the convolutional codes in coding/convolutional.hpp,
// hard- and soft-decision. Used by the mother receiver to close the
// TX->RX loop and by the BER experiments.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/convolutional.hpp"
#include "common/types.hpp"

namespace ofdm::coding {

/// Maximum-likelihood sequence decoder with two branch metrics:
///  - hard: Hamming distance to bits 0/1; kErasure marks (from
///    depuncture_into()) contribute nothing;
///  - soft: correlation with LLRs; LLR 0 (from depuncture_soft_into())
///    is an erasure.
///
/// Both run the same add-compare-select loop in butterfly order (the
/// simd::Kernels::viterbi_acs kernel) on double path metrics; a Hamming
/// metric is a small exact integer there, so hard decisions and ties are
/// those of an integer decoder. Survivors are one decision bit per state
/// per step (ceil(states/64) 64-bit words: 8 bytes at K=7); the traceback
/// rebuilds each predecessor from the state and its bit.
class ViterbiDecoder {
 public:
  /// Throws ConfigError unless the code passes coding::validate().
  explicit ViterbiDecoder(ConvCode code);

  /// Caller-owned buffers of one decode: the path metrics and the
  /// survivor decision words, which keep their capacity across calls.
  struct Scratch {
    std::vector<double> metric;
    std::vector<std::uint64_t> decisions;
  };

  /// Decode a terminated code word (encoder used encode_terminated())
  /// into a caller-owned `out`, with the survivors in `scratch`: forces
  /// the end state to zero and strips the (K-1) tail bits. No allocation
  /// once the buffers have reached the burst size.
  void decode_terminated_into(std::span<const std::uint8_t> coded,
                              Scratch& scratch, bitvec& out) const;

  /// Soft-decision decoding of a terminated code word from LLRs
  /// (convention: llr > 0 => coded bit 0 more likely; llr == 0 ==
  /// erasure), with the same buffers. Typically worth ~2 dB over hard
  /// decisions on an AWGN channel.
  void decode_soft_terminated_into(std::span<const double> llr,
                                   Scratch& scratch, bitvec& out) const;

  const ConvCode& code() const { return code_; }

 private:
  /// The shared forward pass and traceback from the zero end state,
  /// tail bits stripped; fill(t, bm) writes the 2^n_out branch metrics
  /// of step t, indexed by expected output bits.
  template <typename FillBm>
  void run(std::size_t steps, const FillBm& fill, Scratch& scratch,
           bitvec& out) const;

  ConvCode code_;
  // Expected output bits (packed, generator j at bit j) of the branch
  // into next state ns from s0 = 2*(ns mod states/2) at [ns] and from
  // s1 = s0 + 1 at [states + ns].
  std::vector<std::uint32_t> branch_;
};

}  // namespace ofdm::coding
