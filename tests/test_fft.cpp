// FFT unit & property tests: every execution path (split-radix,
// including the level-free sizes 1/2/4, and Bluestein) against the
// O(N^2) reference DFT, round-trip identity, Parseval, the real-input /
// Hermitian-input half-size plan kinds, bit-exact inverse identities
// (fused scale, in-place, exact-zero imaginary parts of the Hermitian
// inverse), the process-wide plan cache (including a multi-threaded
// hammer), and the shift utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <random>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"

namespace ofdm::dsp {
namespace {

cvec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec x(n);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  return x;
}

// Sizes cover every symbol length used by the family, including the DRM
// non-power-of-two lengths that force the Bluestein path.
class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, ForwardMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, n);
  const Fft fft(n);
  const cvec fast = fft.forward(x);
  const cvec ref = reference_dft(x, /*inverse=*/false);
  EXPECT_LT(max_abs_error(fast, ref), 1e-7 * static_cast<double>(n))
      << "size " << n;
}

TEST_P(FftSizes, InverseMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, n + 1);
  const Fft fft(n);
  const cvec fast = fft.inverse(x);
  const cvec ref = reference_dft(x, /*inverse=*/true);
  EXPECT_LT(max_abs_error(fast, ref), 1e-9 * static_cast<double>(n));
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, n + 2);
  const Fft fft(n);
  const cvec back = fft.inverse(fft.forward(x));
  EXPECT_LT(max_abs_error(back, x), 1e-9);
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, n + 3);
  const Fft fft(n);
  const cvec spec = fft.forward(x);
  double et = 0.0;
  double ef = 0.0;
  for (const cplx& v : x) et += std::norm(v);
  for (const cplx& v : spec) ef += std::norm(v);
  EXPECT_NEAR(ef / static_cast<double>(n), et, 1e-6 * et + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    FamilySymbolSizes, FftSizes,
    ::testing::Values<std::size_t>(1, 2, 4, 16, 64, 256, 512, 1024, 2048,
                                   8192,        // power-of-two members
                                   448, 704, 1152,  // DRM modes D, C, A
                                   3, 12, 100, 360,
                                   7, 31, 97, 509));  // primes (Bluestein)

TEST(Fft, PathSelection) {
  EXPECT_TRUE(Fft(1).is_pow2());
  EXPECT_TRUE(Fft(64).is_pow2());
  EXPECT_TRUE(Fft(8192).is_pow2());
  EXPECT_FALSE(Fft(1152).is_pow2());
  EXPECT_FALSE(Fft(448).is_pow2());
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = kTwoPi * static_cast<double>(k * i) /
                     static_cast<double>(n);
    x[i] = {std::cos(a), std::sin(a)};
  }
  const cvec spec = Fft(n).forward(x);
  for (std::size_t bin = 0; bin < n; ++bin) {
    if (bin == k) {
      EXPECT_NEAR(std::abs(spec[bin]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_LT(std::abs(spec[bin]), 1e-9);
    }
  }
}

// Sizes 1, 2 and 4 have no combine level: an in-place request stages
// the gather pass through the plan's scratch buffer and the scale pass
// writes back, so they are pinned alongside the levelled sizes.
TEST(Fft, InPlaceEqualsOutOfPlace) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}, std::size_t{64}, std::size_t{448}}) {
    const cvec x = random_signal(n, 9);
    const Fft fft(n);
    const cvec out = fft.forward(x);
    cvec inplace = x;
    fft.forward(inplace, inplace);
    EXPECT_LT(max_abs_error(out, inplace), 1e-12) << "forward size " << n;

    cvec inv(n);
    fft.inverse(x, inv, 0.5);
    cvec inv_inplace = x;
    fft.inverse(inv_inplace, inv_inplace, 0.5);
    EXPECT_LT(max_abs_error(inv, inv_inplace), 1e-12)
        << "inverse size " << n;
    cvec ref = reference_dft(x, /*inverse=*/true);
    for (cplx& v : ref) v *= 0.5;
    EXPECT_LT(max_abs_error(inv, ref), 1e-12 * static_cast<double>(n))
        << "inverse scale size " << n;
  }
}

TEST(Fft, RejectsSizeMismatch) {
  Fft fft(64);
  cvec x(32);
  cvec y(64);
  EXPECT_THROW(fft.forward(x, y), DimensionError);
}

TEST(Fft, RejectsSizeZero) { EXPECT_THROW(Fft(0), ConfigError); }

// --------------------------------------------------------------------------
// Half-size plan kinds

TEST(FftRealInput, MatchesFullForwardOnRealSignals) {
  for (std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{256},
                        std::size_t{512}, std::size_t{2048}}) {
    Rng rng(n);
    cvec x(n);
    for (cplx& v : x) v = {rng.gaussian(), 0.0};
    const Fft fft(n);
    const cvec full = fft.forward(x);
    cvec half(n);
    fft.forward_real(x, half);
    EXPECT_LT(max_abs_error(half, full), 1e-9 * static_cast<double>(n))
        << "size " << n;
  }
}

TEST(FftRealInput, IgnoresImaginaryParts) {
  const std::size_t n = 64;
  Rng rng(7);
  cvec x(n);
  cvec junk(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = rng.gaussian();
    x[i] = {re, 0.0};
    junk[i] = {re, rng.gaussian()};  // same reals, garbage imag
  }
  const Fft fft(n);
  cvec a(n);
  cvec b(n);
  fft.forward_real(x, a);
  fft.forward_real(junk, b);
  EXPECT_LT(max_abs_error(a, b), 0.0 + 1e-15);
}

TEST(FftRealInput, OddSizeFallsBack) {
  const std::size_t n = 27;
  Rng rng(3);
  cvec x(n);
  for (cplx& v : x) v = {rng.gaussian(), 0.0};
  const Fft fft(n);
  cvec out(n);
  fft.forward_real(x, out);
  EXPECT_LT(max_abs_error(out, reference_dft(x)),
            1e-7 * static_cast<double>(n));
}

TEST(FftRealInput, InPlaceEqualsOutOfPlace) {
  const std::size_t n = 512;
  Rng rng(11);
  cvec x(n);
  for (cplx& v : x) v = {rng.gaussian(), 0.0};
  const Fft fft(n);
  cvec out(n);
  fft.forward_real(x, out);
  cvec inplace = x;
  fft.forward_real(inplace, inplace);
  EXPECT_LT(max_abs_error(out, inplace), 0.0 + 1e-15);
}

TEST(FftRealInput, RoundTripsThroughInverseHermitian) {
  for (std::size_t n : {std::size_t{64}, std::size_t{1024}}) {
    Rng rng(n + 5);
    cvec x(n);
    for (cplx& v : x) v = {rng.gaussian(), 0.0};
    const Fft fft(n);
    cvec spec(n);
    fft.forward_real(x, spec);
    cvec back(n);
    fft.inverse_hermitian(spec, back);
    EXPECT_LT(max_abs_error(back, x), 1e-9) << "size " << n;
    for (const cplx& v : back) EXPECT_EQ(v.imag(), 0.0);
  }
}

// --------------------------------------------------------------------------
// Inverse transforms: exact identities of the fused scale and in-place
// execution, and the Hermitian inverse (incl. the n = 36 Bluestein half)

cvec random_hermitian_spectrum(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  cvec x(n, cplx{0.0, 0.0});
  for (std::size_t k = 1; k < n / 2; ++k) {
    x[k] = {dist(rng), dist(rng)};
    x[n - k] = std::conj(x[k]);
  }
  // DC and Nyquist must be real for a real output signal.
  x[0] = {dist(rng), 0.0};
  if (n % 2 == 0) x[n / 2] = {dist(rng), 0.0};
  return x;
}

TEST(HermitianIfft, MatchesReferenceDft) {
  // 512/1024/8192 are the ADSL/ADSL++/VDSL sizes; 36 exercises the
  // even-but-not-power-of-two path (half size 18 -> Bluestein).
  for (std::size_t n : {8u, 36u, 512u, 1024u}) {
    const cvec x = random_hermitian_spectrum(n, 7u + n);
    const cvec ref = dsp::reference_dft(x, /*inverse=*/true);
    cvec out(n);
    dsp::Fft fft(n);
    fft.inverse_hermitian(x, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i].real(), ref[i].real(), 1e-9 * n) << n << ":" << i;
      // The fast path produces exact zeros in the imaginary part.
      EXPECT_EQ(out[i].imag(), 0.0) << n << ":" << i;
      EXPECT_NEAR(ref[i].imag(), 0.0, 1e-9 * n) << n << ":" << i;
    }
  }
}

TEST(HermitianIfft, ScaleFactorRidesAlong) {
  const std::size_t n = 64;
  const cvec x = random_hermitian_spectrum(n, 3);
  dsp::Fft fft(n);
  cvec plain(n);
  cvec scaled(n);
  fft.inverse_hermitian(x, plain);
  fft.inverse_hermitian(x, scaled, 2.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scaled[i].real(), 2.5 * plain[i].real(), 1e-12);
  }
}

TEST(Ifft, InPlaceEqualsOutOfPlace) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n : {16u, 60u, 256u}) {
    cvec x(n);
    for (auto& v : x) v = {dist(rng), dist(rng)};
    dsp::Fft fft(n);
    cvec out(n);
    fft.inverse(x, out, 1.7);
    cvec inplace = x;
    fft.inverse(inplace, inplace, 1.7);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], inplace[i]) << n << ":" << i;
    }
  }
}

TEST(Ifft, HermitianInPlaceEqualsOutOfPlace) {
  for (std::size_t n : {64u, 512u}) {
    const cvec x = random_hermitian_spectrum(n, 5u + n);
    dsp::Fft fft(n);
    cvec out(n);
    fft.inverse_hermitian(x, out, 0.5);
    cvec inplace = x;
    fft.inverse_hermitian(inplace, inplace, 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], inplace[i]) << n << ":" << i;
    }
  }
}

TEST(Ifft, FusedScaleMatchesSeparateScaling) {
  // Folding the 1/N + tone scale into the last butterfly stage must be
  // bit-identical to scaling the unscaled output afterwards (the same
  // floating-point operations in the same order).
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (std::size_t n : {64u, 1024u}) {
    cvec x(n);
    for (auto& v : x) v = {dist(rng), dist(rng)};
    dsp::Fft fft(n);
    cvec fused(n);
    fft.inverse(x, fused, 3.25);
    cvec plain(n);
    fft.inverse(x, plain);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fused[i], plain[i] * 3.25) << n << ":" << i;
    }
  }
}

// --------------------------------------------------------------------------
// Plan-table cache

TEST(FftPlanCache, SharesTablesAcrossPlans) {
  fft_plan_cache_clear();
  const Fft a(512);
  const FftCacheStats after_first = fft_plan_cache_stats();
  const Fft b(512);
  const Fft c(512);
  const FftCacheStats after_three = fft_plan_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_three.misses, 1u);
  EXPECT_GE(after_three.hits, after_first.hits + 2);
  EXPECT_EQ(after_three.entries, 1u);
}

TEST(FftPlanCache, BluesteinSharesInnerConvolutionTables) {
  fft_plan_cache_clear();
  // DRM mode A (1152 points) convolves at next_pow2(2*1152-1) = 4096:
  // a later direct 4096-point plan must reuse those inner pow2 tables.
  const Fft a(1152);
  const FftCacheStats s1 = fft_plan_cache_stats();
  EXPECT_EQ(s1.entries, 2u);  // bluestein(1152) + pow(4096)
  const Fft b(4096);
  const FftCacheStats s2 = fft_plan_cache_stats();
  EXPECT_EQ(s2.entries, 2u);  // pow(4096) shared, nothing new
  EXPECT_GE(s2.hits, s1.hits + 1);
}

TEST(FftPlanCache, ClearDoesNotInvalidateLivePlans) {
  fft_plan_cache_clear();
  const std::size_t n = 256;
  const cvec x = random_signal(n, 21);
  const Fft fft(n);
  const cvec before = fft.forward(x);
  fft_plan_cache_clear();
  const cvec after = fft.forward(x);  // tables alive via shared_ptr
  EXPECT_LT(max_abs_error(before, after), 0.0 + 1e-15);
  EXPECT_EQ(fft_plan_cache_stats().entries, 0u);
}

// The cache is the one piece of process-global mutable state in the
// engine: hammer it from concurrent workers the way LinkRunner's
// trial batches do (plan-per-thread, shared tables underneath), with
// a clear() thrown in mid-flight to exercise the shared-ownership
// lifetime. Run under TSan via scripts/tsan.sh.
TEST(FftPlanCache, ConcurrentAcquireAndExecute) {
  fft_plan_cache_clear();
  const std::size_t kThreads = 8;
  const std::size_t kRounds = 12;
  const std::size_t sizes[] = {64, 512, 1152, 256, 448};
  std::vector<cvec> inputs;
  std::vector<cvec> expected;
  for (std::size_t n : sizes) {
    inputs.push_back(random_signal(n, 0xCAFE + n));
    const Fft fft(n);
    expected.push_back(fft.forward(inputs.back()));
  }
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::size_t i = (t + r) % std::size(sizes);
        const Fft fft(sizes[i]);  // races on the cache by design
        const cvec got = fft.forward(inputs[i]);
        if (max_abs_error(got, expected[i]) > 1e-12) ++failures[t];
        if (t == 0 && r == kRounds / 2) fft_plan_cache_clear();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

TEST(FftShift, EvenLength) {
  const cvec x = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const cvec s = fftshift(x);
  EXPECT_EQ(s[0].real(), 2.0);
  EXPECT_EQ(s[1].real(), 3.0);
  EXPECT_EQ(s[2].real(), 0.0);
  EXPECT_EQ(s[3].real(), 1.0);
}

TEST(FftShift, ShiftInverse) {
  const cvec x = random_signal(17, 10);  // odd length is the tricky case
  EXPECT_LT(max_abs_error(ifftshift(fftshift(x)), x), 0.0 + 1e-15);
  const cvec y = random_signal(16, 11);
  EXPECT_LT(max_abs_error(ifftshift(fftshift(y)), y), 1e-15);
}

}  // namespace
}  // namespace ofdm::dsp
