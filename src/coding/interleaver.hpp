// Interleavers used across the OFDM family:
//  * block (row/column) interleaving — generic workhorse;
//  * the two-permutation 802.11a bit interleaver;
//  * convolutional (Forney) byte interleaving — DVB outer interleaver;
//  * seeded pseudo-random cell interleaving — DRM-style QAM cell shuffle.
//
// All are expressed as permutations (or delay structures) with exact
// inverses so the reference receivers can undo them losslessly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace ofdm::coding {

/// An arbitrary permutation pi of block size N: out[pi[i]] = in[i].
class PermutationInterleaver {
 public:
  explicit PermutationInterleaver(std::vector<std::size_t> mapping);

  std::size_t block_size() const { return map_.size(); }

  /// Interleave one block (input length must equal block_size()).
  template <typename T>
  std::vector<T> interleave(std::span<const T> in) const {
    std::vector<T> out(in.size());
    interleave_into(in, std::span<T>(out));
    return out;
  }

  /// interleave() into a caller-sized span (out.size() == in.size()).
  template <typename T>
  void interleave_into(std::span<const T> in, std::span<T> out) const {
    check_size(in.size());
    check_size(out.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[map_[i]] = in[i];
  }

  /// Exact inverse of interleave().
  template <typename T>
  std::vector<T> deinterleave(std::span<const T> in) const {
    std::vector<T> out(in.size());
    deinterleave_into(in, std::span<T>(out));
    return out;
  }

  /// deinterleave() into a caller-sized span (out.size() == in.size()),
  /// e.g. the tail of a stream the caller is appending to.
  template <typename T>
  void deinterleave_into(std::span<const T> in, std::span<T> out) const {
    check_size(in.size());
    check_size(out.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[map_[i]];
  }

  const std::vector<std::size_t>& mapping() const { return map_; }

 private:
  void check_size(std::size_t n) const;
  std::vector<std::size_t> map_;
};

/// Row/column block interleaver: written row-wise, read column-wise.
PermutationInterleaver make_block_interleaver(std::size_t rows,
                                              std::size_t cols);

/// IEEE 802.11a-1999 17.3.5.6 bit interleaver for one OFDM symbol.
/// `n_cbps` = coded bits per symbol, `n_bpsc` = bits per subcarrier.
PermutationInterleaver make_wlan_interleaver(std::size_t n_cbps,
                                             std::size_t n_bpsc);

/// Deterministic seeded pseudo-random permutation (Fisher-Yates driven by
/// a fixed xorshift stream) — used as the DRM-style cell interleaver.
PermutationInterleaver make_random_interleaver(std::size_t n,
                                               std::uint64_t seed);

/// Convolutional (Forney) interleaver with I branches of depth M:
/// branch j delays its bytes by j*M. The matching deinterleaver applies
/// the complementary delays; end-to-end latency is I*(I-1)*M symbols.
class ConvolutionalInterleaver {
 public:
  /// `deinterleave == true` builds the complementary (receiver) side.
  ConvolutionalInterleaver(std::size_t branches, std::size_t depth,
                           bool deinterleave = false);

  /// Process a stream chunk; returns the same number of symbols (the
  /// leading output is delay-line fill, zeros until the pipe is primed).
  bytevec process(std::span<const std::uint8_t> in);

  /// Total interleaver+deinterleaver latency in symbols.
  std::size_t end_to_end_delay() const {
    return branches_ * (branches_ - 1) * depth_;
  }

  void reset();

 private:
  std::size_t branches_;
  std::size_t depth_;
  bool deinterleave_;
  std::vector<bytevec> lines_;       // one FIFO per branch
  std::vector<std::size_t> heads_;   // circular indices
  std::size_t branch_ = 0;           // commutator position
};

}  // namespace ofdm::coding
