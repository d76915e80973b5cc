#include "coding/interleaver.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace ofdm::coding {

PermutationInterleaver::PermutationInterleaver(
    std::vector<std::size_t> mapping)
    : map_(std::move(mapping)) {
  OFDM_REQUIRE(!map_.empty(), "PermutationInterleaver: empty mapping");
  // Verify the mapping is a bijection on [0, N).
  std::vector<std::uint8_t> seen(map_.size(), 0);
  for (std::size_t m : map_) {
    OFDM_REQUIRE(m < map_.size() && !seen[m],
                 "PermutationInterleaver: mapping is not a permutation");
    seen[m] = 1;
  }
}

void PermutationInterleaver::check_size(std::size_t n) const {
  OFDM_REQUIRE_DIM(n == map_.size(),
                   "PermutationInterleaver: block size mismatch");
}

PermutationInterleaver make_block_interleaver(std::size_t rows,
                                              std::size_t cols) {
  OFDM_REQUIRE(rows >= 1 && cols >= 1,
               "make_block_interleaver: rows/cols must be >= 1");
  std::vector<std::size_t> map(rows * cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    map[i] = c * rows + r;  // write row-wise, read column-wise
  }
  return PermutationInterleaver(std::move(map));
}

PermutationInterleaver make_wlan_interleaver(std::size_t n_cbps,
                                             std::size_t n_bpsc) {
  OFDM_REQUIRE(n_cbps % 16 == 0,
               "make_wlan_interleaver: N_CBPS must be divisible by 16");
  OFDM_REQUIRE(n_bpsc >= 1, "make_wlan_interleaver: N_BPSC must be >= 1");
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  std::vector<std::size_t> map(n_cbps);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    // First permutation: adjacent coded bits onto nonadjacent carriers.
    const std::size_t i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation: alternate onto less/more significant bits.
    const std::size_t j =
        s * (i / s) +
        (i + n_cbps - (16 * i) / n_cbps) % s;
    map[k] = j;
  }
  return PermutationInterleaver(std::move(map));
}

PermutationInterleaver make_random_interleaver(std::size_t n,
                                               std::uint64_t seed) {
  OFDM_REQUIRE(n >= 1, "make_random_interleaver: n must be >= 1");
  std::vector<std::size_t> map(n);
  std::iota(map.begin(), map.end(), std::size_t{0});
  // Self-contained xorshift64* so the permutation is stable regardless of
  // the library RNG (profiles persist these seeds).
  std::uint64_t s = seed ? seed : 0x2545F4914F6CDD1Dull;
  auto next = [&s]() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  };
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(next() % (i + 1));
    std::swap(map[i], map[j]);
  }
  return PermutationInterleaver(std::move(map));
}

}  // namespace ofdm::coding
