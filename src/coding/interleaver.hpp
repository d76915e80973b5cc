// Interleavers used across the OFDM family:
//  * block (row/column) interleaving — generic workhorse;
//  * the two-permutation 802.11a bit interleaver;
//  * seeded pseudo-random cell interleaving — DRM-style QAM cell shuffle.
//
// All are expressed as permutations with exact inverses so the reference
// receivers can undo them losslessly.
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

  /// Interleave one block (input length must equal block_size()) into a
  /// caller-sized span (out.size() == in.size()).
  template <typename T>
  void interleave_into(std::span<const T> in, std::span<T> out) const {
    check_size(in.size());
    check_size(out.size());
    for (std::size_t i = 0; i < in.size(); ++i) out[map_[i]] = in[i];
  }

  /// Exact inverse of interleave_into(), into a caller-sized span
  /// (out.size() == in.size()), e.g. the tail of a stream the caller is
  /// appending to.
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

}  // namespace ofdm::coding
