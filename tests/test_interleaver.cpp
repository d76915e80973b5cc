// Interleaver tests: bijectivity, exact inverses, and the 802.11a
// interleaver against the standard's defining property.
#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "coding/interleaver.hpp"
#include "common/rng.hpp"

namespace ofdm::coding {
namespace {

TEST(PermutationInterleaver, RejectsNonPermutation) {
  EXPECT_THROW(PermutationInterleaver({0, 0, 1}), Error);
  EXPECT_THROW(PermutationInterleaver({0, 1, 5}), Error);
}

TEST(PermutationInterleaver, InterleaveDeinterleaveInverse) {
  Rng rng(71);
  const auto inter = make_random_interleaver(97, 0xABCD);
  const bitvec data = rng.bits(97);
  bitvec mixed(data.size()), back(data.size());
  inter.interleave_into(std::span<const std::uint8_t>(data),
                        std::span<std::uint8_t>(mixed));
  inter.deinterleave_into(std::span<const std::uint8_t>(mixed),
                          std::span<std::uint8_t>(back));
  EXPECT_EQ(back, data);
}

TEST(BlockInterleaver, RowColumnSemantics) {
  // 2x3: write rows [0 1 2; 3 4 5], read columns -> 0 3 1 4 2 5.
  const auto inter = make_block_interleaver(2, 3);
  const std::vector<int> in = {0, 1, 2, 3, 4, 5};
  std::vector<int> out(in.size());
  inter.interleave_into(std::span<const int>(in), std::span<int>(out));
  EXPECT_EQ(out, (std::vector<int>{0, 3, 1, 4, 2, 5}));
}

TEST(BlockInterleaver, SeparatesAdjacentSymbols) {
  const auto inter = make_block_interleaver(8, 16);
  const auto& map = inter.mapping();
  // Adjacent input bits land at least `rows` apart in the output.
  for (std::size_t i = 0; i + 1 < map.size(); ++i) {
    if (i % 16 == 15) continue;  // row wrap
    const auto d = static_cast<long>(map[i + 1]) -
                   static_cast<long>(map[i]);
    EXPECT_EQ(d, 8);
  }
}

TEST(WlanInterleaver, IsBijective) {
  for (std::size_t n_bpsc : {1u, 2u, 4u, 6u}) {
    const std::size_t n_cbps = 48 * n_bpsc;
    const auto inter = make_wlan_interleaver(n_cbps, n_bpsc);
    std::vector<std::uint8_t> seen(n_cbps, 0);
    for (std::size_t m : inter.mapping()) {
      EXPECT_EQ(seen[m], 0);
      seen[m] = 1;
    }
  }
}

TEST(WlanInterleaver, AdjacentCodedBitsOnNonadjacentCarriers) {
  // The standard's stated goal: adjacent coded bits map onto
  // non-adjacent subcarriers (first permutation spreads by N_CBPS/16).
  const std::size_t n_bpsc = 4;
  const std::size_t n_cbps = 192;
  const auto inter = make_wlan_interleaver(n_cbps, n_bpsc);
  const auto& map = inter.mapping();
  for (std::size_t k = 0; k + 1 < n_cbps; ++k) {
    const long carrier_a = static_cast<long>(map[k] / n_bpsc);
    const long carrier_b = static_cast<long>(map[k + 1] / n_bpsc);
    EXPECT_NE(carrier_a, carrier_b) << "coded bits " << k << "," << k + 1;
  }
}

TEST(WlanInterleaver, MatchesStandardFormulaSpotChecks) {
  // Directly evaluate the two-permutation formula from 17.3.5.6 for
  // N_CBPS=48, N_BPSC=1 (BPSK): s=1 so j==i.
  const auto inter = make_wlan_interleaver(48, 1);
  const auto& map = inter.mapping();
  for (std::size_t k = 0; k < 48; ++k) {
    const std::size_t i = (48 / 16) * (k % 16) + k / 16;
    EXPECT_EQ(map[k], i);
  }
}

TEST(RandomInterleaver, SeedDeterminesPermutation) {
  const auto a = make_random_interleaver(64, 7);
  const auto b = make_random_interleaver(64, 7);
  const auto c = make_random_interleaver(64, 8);
  EXPECT_EQ(a.mapping(), b.mapping());
  EXPECT_NE(a.mapping(), c.mapping());
}

TEST(RandomInterleaver, ActuallyPermutes) {
  const auto inter = make_random_interleaver(256, 99);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    moved += inter.mapping()[i] != i;
  }
  EXPECT_GT(moved, 200u);
}

}  // namespace
}  // namespace ofdm::coding
