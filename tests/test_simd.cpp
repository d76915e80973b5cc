// The dispatch layer's bit-reproducibility contract: every SIMD tier
// must produce byte-identical output to the scalar reference, from the
// raw kernel table all the way up to whole transmitter bursts for all
// ten family standards. Plus the FIR/TDL edge cases the vector widths
// make interesting: inputs shorter than the tap count, chunks not
// divisible by the vector width, and chunking invariance across odd
// splits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/simd/dispatch.hpp"
#include "net/protocol.hpp"
#include "rf/channel.hpp"
#include "rf/channels/watterson.hpp"

namespace {

using namespace ofdm;

bool bit_equal(const cvec& a, const cvec& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// Run `body` under the requested tier, restoring the default after.
template <typename Body>
auto under_tier(simd::Tier tier, Body&& body) {
  simd::force_tier(tier);
  auto result = body();
  simd::force_tier(simd::best_supported_tier());
  return result;
}

cvec random_cvec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec v(n);
  for (cplx& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

rvec random_rvec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  rvec v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

const std::size_t kOddSizes[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31,
                                 33, 64, 97};

class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    best_ = simd::best_supported_tier();
    if (best_ == simd::Tier::kScalar) {
      GTEST_SKIP() << "host has only the scalar tier";
    }
  }
  void TearDown() override { simd::force_tier(best_); }
  simd::Tier best_ = simd::Tier::kScalar;
};

TEST(SimdDispatch, ForceTierClampsAndReports) {
  const simd::Tier best = simd::best_supported_tier();
  EXPECT_EQ(simd::force_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_STREQ(simd::kernels().name, "scalar");
  EXPECT_EQ(simd::force_tier(best), best);
  EXPECT_EQ(simd::tier_name(simd::active_tier()),
            std::string(simd::kernels().name));
}

TEST(SimdDispatchDeathTest, NeonIsRejectedLikeAnyUnknownTier) {
  // The tier resolves once per process, so each request runs in a fresh
  // child that sets OFDM_SIMD and resolves; a refused name exits 3 with
  // the error text, a known one exits 0.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto resolve_with = [](const char* tier) {
    ::setenv("OFDM_SIMD", tier, 1);
    try {
      (void)simd::kernels();
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::_Exit(3);
    }
    std::_Exit(0);
  };
  for (const char* tier : {"neon", "bogus", "AVX2"}) {
    EXPECT_EXIT(resolve_with(tier), ::testing::ExitedWithCode(3),
                std::string("unknown tier '") + tier + "'")
        << tier;
  }
  EXPECT_EXIT(resolve_with("scalar"), ::testing::ExitedWithCode(0), "");
}

TEST_F(SimdTest, CvecOpsBitIdenticalAtOddSizes) {
  const simd::Kernels& ref = simd::scalar_kernels();
  simd::force_tier(best_);
  const simd::Kernels& vec = simd::kernels();
  ASSERT_STRNE(ref.name, vec.name);
  for (std::size_t n : kOddSizes) {
    const cvec a = random_cvec(n, 100 + n);
    const cvec b = random_cvec(n, 200 + n);
    cvec r(n), v(n);
    ref.cvec_add(a.data(), b.data(), r.data(), n);
    vec.cvec_add(a.data(), b.data(), v.data(), n);
    EXPECT_TRUE(bit_equal(r, v)) << vec.name << " cvec_add n=" << n;
    ref.cvec_mul(a.data(), b.data(), r.data(), n);
    vec.cvec_mul(a.data(), b.data(), v.data(), n);
    EXPECT_TRUE(bit_equal(r, v)) << vec.name << " cvec_mul n=" << n;
    ref.cvec_scale(a.data(), 0.7071, r.data(), n);
    vec.cvec_scale(a.data(), 0.7071, v.data(), n);
    EXPECT_TRUE(bit_equal(r, v)) << vec.name << " cvec_scale n=" << n;

    rvec ra = random_rvec(n, 300 + n);
    rvec rv = ra;
    const rvec rb = random_rvec(n, 400 + n);
    ref.rvec_add(ra.data(), rb.data(), n);
    vec.rvec_add(rv.data(), rb.data(), n);
    EXPECT_EQ(std::memcmp(ra.data(), rv.data(), n * sizeof(double)), 0)
        << vec.name << " rvec_add n=" << n;

    // Aliased form (the sanctioned in-place use).
    cvec ali_r = a, ali_v = a;
    ref.cvec_mul(ali_r.data(), b.data(), ali_r.data(), n);
    vec.cvec_mul(ali_v.data(), b.data(), ali_v.data(), n);
    EXPECT_TRUE(bit_equal(ali_r, ali_v))
        << vec.name << " aliased cvec_mul n=" << n;
  }
}

TEST_F(SimdTest, FirKernelsBitIdenticalAtOddSizes) {
  const simd::Kernels& ref = simd::scalar_kernels();
  simd::force_tier(best_);
  const simd::Kernels& vec = simd::kernels();
  const std::size_t tap_counts[] = {1, 2, 3, 4, 7, 8, 9, 33};
  for (std::size_t n_taps : tap_counts) {
    const rvec rtaps = random_rvec(n_taps, 500 + n_taps);
    const cvec ctaps = random_cvec(n_taps, 600 + n_taps);
    for (std::size_t n_out : kOddSizes) {
      const cvec x = random_cvec(n_out + n_taps - 1, 700 + n_out);
      cvec r(n_out), v(n_out);
      ref.fir_cr(x.data(), rtaps.data(), n_taps, r.data(), n_out);
      vec.fir_cr(x.data(), rtaps.data(), n_taps, v.data(), n_out);
      EXPECT_TRUE(bit_equal(r, v))
          << vec.name << " fir_cr taps=" << n_taps << " n=" << n_out;
      ref.fir_cc(x.data(), ctaps.data(), n_taps, r.data(), n_out);
      vec.fir_cc(x.data(), ctaps.data(), n_taps, v.data(), n_out);
      EXPECT_TRUE(bit_equal(r, v))
          << vec.name << " fir_cc taps=" << n_taps << " n=" << n_out;
    }
  }
}

TEST_F(SimdTest, ViterbiAcsBitIdenticalAcrossTiers) {
  const simd::Kernels& ref = simd::scalar_kernels();
  std::vector<const simd::Kernels*> tiers;
  for (simd::Tier tier :
       {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (simd::force_tier(tier) == tier) tiers.push_back(&simd::kernels());
  }
  // Inputs per case: 0 = continuous random metrics; 1 = small integers,
  // so candidate metrics tie; 2 = the decoder's start (state 0 at 0,
  // every other state unreachable at 1e300) with integer branch metrics.
  for (unsigned k = 3; k <= 9; ++k) {
    const std::size_t states = std::size_t{1} << (k - 1);
    const std::size_t words = (states + 63) / 64;
    for (std::size_t n_bm : {std::size_t{4}, std::size_t{8}}) {
      for (std::size_t steps : {1, 2, 3, 7, 17, 65}) {
        for (int inputs = 0; inputs < 3; ++inputs) {
          Rng rng(3000 + 100 * k + 10 * steps + inputs + n_bm);
          std::vector<std::uint32_t> branch(2 * states);
          for (std::uint32_t& b : branch) {
            b = static_cast<std::uint32_t>(rng.uniform(0.0, 1.0) * n_bm);
          }
          rvec bm(steps * n_bm);
          for (double& x : bm) {
            x = inputs == 0 ? rng.uniform(-2.0, 2.0)
                            : std::floor(rng.uniform(0.0, 3.0));
          }
          rvec start(states, 1e300);
          if (inputs == 2) {
            start[0] = 0.0;
          } else {
            for (double& x : start) {
              x = inputs == 0 ? rng.uniform(0.0, 8.0)
                              : std::floor(rng.uniform(0.0, 4.0));
            }
          }
          rvec ref_metric = start;
          std::vector<std::uint64_t> ref_dec(steps * words, ~0ull);
          ref.viterbi_acs(ref_metric.data(), states, branch.data(),
                          bm.data(), n_bm, steps, ref_dec.data());
          for (const simd::Kernels* vec : tiers) {
            rvec metric = start;
            std::vector<std::uint64_t> dec(steps * words, ~0ull);
            vec->viterbi_acs(metric.data(), states, branch.data(),
                             bm.data(), n_bm, steps, dec.data());
            EXPECT_EQ(std::memcmp(metric.data(), ref_metric.data(),
                                  states * sizeof(double)),
                      0)
                << vec->name << " metrics K=" << k << " steps=" << steps
                << " inputs=" << inputs << " n_bm=" << n_bm;
            EXPECT_EQ(dec, ref_dec)
                << vec->name << " decisions K=" << k << " steps=" << steps
                << " inputs=" << inputs << " n_bm=" << n_bm;
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, FftBitIdenticalAcrossTiers) {
  // Power-of-two sizes (incl. the level-free 2/4 and the half-size
  // real-input / Hermitian plan kinds) and Bluestein sizes (DRM's
  // 1152/448 — pointwise products go through cvec_mul).
  const std::size_t sizes[] = {2, 4, 8, 64, 256, 512, 1024, 448, 1152};
  for (std::size_t n : sizes) {
    const cvec in = random_cvec(n, 800 + n);

    auto run = [&](simd::Tier tier) {
      return under_tier(tier, [&] {
        dsp::Fft fft(n);
        cvec fwd(n), inv(n);
        fft.forward(in, fwd);
        fft.inverse(in, inv, 0.5);
        cvec herm, realf;
        if (n % 2 == 0) {
          // Hermitian spectrum: X[n-k] = conj(X[k]), real DC/Nyquist.
          cvec spec(n);
          spec[0] = {in[0].real(), 0.0};
          spec[n / 2] = {in[n / 2].real(), 0.0};
          for (std::size_t k = 1; k < n / 2; ++k) {
            spec[k] = in[k];
            spec[n - k] = std::conj(in[k]);
          }
          herm.resize(n);
          fft.inverse_hermitian(spec, herm, 2.0);
          realf.resize(n);
          fft.forward_real(herm, realf);
        }
        cvec all = fwd;
        all.insert(all.end(), inv.begin(), inv.end());
        all.insert(all.end(), herm.begin(), herm.end());
        all.insert(all.end(), realf.begin(), realf.end());
        return all;
      });
    };

    const cvec scalar = run(simd::Tier::kScalar);
    const cvec simd_out = run(best_);
    EXPECT_TRUE(bit_equal(scalar, simd_out)) << "fft n=" << n;
  }
}

TEST_F(SimdTest, IqCodecBitIdenticalAcrossTiers) {
  // The wire codec behind `iq` events: every tier must write the same
  // digits and decode the same doubles, both equal to the plain RFC 4648
  // encoding of the static_cast<float> bytes and its static_cast<double>.
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  for (simd::Tier tier : {simd::Tier::kSse2, simd::Tier::kAvx2}) {
    if (simd::force_tier(tier) == tier) tiers.push_back(tier);
  }
  // Counts straddle the 3-sample / 32-digit kernel block (both padding
  // shapes) and 192 samples, the staging block of the former codec.
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 70; ++n) counts.push_back(n);
  for (std::size_t n : {191, 192, 193, 4096}) counts.push_back(n);
  const double specials[] = {
      0.0, -0.0, 1e300, -1e300, 1e-300, 1e-40,  // overflow, underflow
      1.0 + 0x1p-24, 1.0 + 0x1p-24 + 0x1p-52,   // tie, just above tie
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN()};
  for (std::size_t n : counts) {
    cvec x = random_cvec(n, 900 + n);
    for (std::size_t i = 0; i < n; i += 5) {
      x[i] = {specials[i % std::size(specials)],
              specials[(i / 5) % std::size(specials)]};
    }
    bytevec raw;
    cvec want;
    for (const cplx& v : x) {
      const float f[2] = {static_cast<float>(v.real()),
                          static_cast<float>(v.imag())};
      const auto* b = reinterpret_cast<const std::uint8_t*>(f);
      raw.insert(raw.end(), b, b + sizeof f);
      want.push_back({f[0], f[1]});
    }
    const std::string oracle = net::base64_encode(raw);
    const std::size_t whole = n / 3 * 3;  // the kernels' share
    const cvec x_whole(x.begin(), x.begin() + whole);
    for (simd::Tier tier : tiers) {
      // Payloads and kernel buffers sit in exactly sized heap blocks, so
      // ASan sees any access past either end.
      const auto [digits, back, kernel_digits, kernel_back] =
          under_tier(tier, [&] {
            std::string d = "<";
            net::pack_iq_f32(d, x);
            const std::vector<char> wire(d.begin() + 1, d.end());
            cvec b(1, cplx{7.0, -7.0});
            net::unpack_iq_f32({wire.data(), wire.size()}, b);
            const simd::Kernels& k = simd::kernels();
            std::vector<char> kd(whole / 3 * 32);
            k.iq_pack(x_whole.data(), whole, kd.data());
            cvec kb(whole);
            EXPECT_FALSE(k.iq_unpack(kd.data(), kd.size(), kb.data()));
            return std::make_tuple(d, b, std::string(kd.begin(), kd.end()),
                                   kb);
          });
      const std::string name = simd::tier_name(tier);
      EXPECT_EQ(digits, "<" + oracle) << name << " pack n=" << n;
      EXPECT_EQ(kernel_digits, oracle.substr(0, whole / 3 * 32)) << name;
      ASSERT_EQ(back.size(), n + 1) << name << " unpack n=" << n;
      EXPECT_TRUE(bit_equal(cvec(back.begin() + 1, back.end()), want))
          << name << " unpack n=" << n;
      EXPECT_TRUE(bit_equal(kernel_back,
                            cvec(want.begin(), want.begin() + whole)))
          << name << " kernel unpack n=" << n;
    }
  }

  // Refusals: one bad byte at every offset of the first 96 digits and
  // in the final group, unpadded (192), "=" (70) and "==" (71) shaped.
  const char bad_bytes[] = {'*', '=', '\0', '\x80', '\xff'};
  for (std::size_t n : {70, 71, 192}) {
    std::string good;
    net::pack_iq_f32(good, random_cvec(n, 950 + n));
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < 96; ++i) offsets.push_back(i);
    for (std::size_t i = good.size() - 4; i < good.size(); ++i) {
      offsets.push_back(i);
    }
    for (simd::Tier tier : tiers) {
      simd::force_tier(tier);
      for (std::size_t at : offsets) {
        for (char bad : bad_bytes) {
          if (good[at] == bad) continue;
          std::vector<char> corrupt(good.begin(), good.end());
          corrupt[at] = bad;
          cvec out(2, cplx{3.0, 4.0});
          EXPECT_THROW(
              net::unpack_iq_f32({corrupt.data(), corrupt.size()}, out),
              net::NetError)
              << simd::tier_name(tier) << " n=" << n << " offset=" << at
              << " byte=" << int(static_cast<unsigned char>(bad));
          EXPECT_TRUE(bit_equal(out, cvec(2, cplx{3.0, 4.0})));
        }
      }
      // A cut length and a payload that is not whole (re,im) pairs.
      cvec out(1);
      EXPECT_THROW(net::unpack_iq_f32(good.substr(0, good.size() - 1), out),
                   net::NetError);
      EXPECT_THROW(net::unpack_iq_f32(net::base64_encode(bytevec(7)), out),
                   net::NetError);
      EXPECT_EQ(out.size(), 1u);
    }
    simd::force_tier(best_);
  }
}

TEST_F(SimdTest, TenStandardBurstsBitIdenticalAcrossTiers) {
  for (const core::Standard standard : core::kStandardFamily) {
    auto run = [&](simd::Tier tier) {
      return under_tier(tier, [&] {
        core::Transmitter tx(core::profile_for(standard));
        Rng rng(42);
        const bitvec payload = rng.bits(
            std::min<std::size_t>(tx.recommended_payload_bits(), 4000));
        return tx.modulate(payload).samples;
      });
    };
    const cvec scalar = run(simd::Tier::kScalar);
    const cvec simd_out = run(best_);
    EXPECT_FALSE(scalar.empty());
    EXPECT_TRUE(bit_equal(scalar, simd_out))
        << core::standard_name(standard) << ": scalar vs "
        << simd::tier_name(best_) << " burst digests differ";
  }
}

TEST(SimdBatch, ModulateIntoReusesBufferCleanly) {
  core::Transmitter tx(
      core::profile_for(core::Standard::kWlan80211a));
  Rng rng(9);
  const bitvec p1 = rng.bits(1200);
  const bitvec p2 = rng.bits(900);  // shorter: stale tail must vanish

  core::Transmitter::Burst reused;
  tx.modulate_into(p1, reused);
  const auto fresh1 = tx.modulate(p1);
  EXPECT_TRUE(bit_equal(fresh1.samples, reused.samples));

  tx.modulate_into(p2, reused);
  const auto fresh2 = tx.modulate(p2);
  EXPECT_TRUE(bit_equal(fresh2.samples, reused.samples));
  EXPECT_EQ(fresh2.data_symbols, reused.data_symbols);
}

// --- FIR / TDL edge cases ----------------------------------------------

TEST(FirEdge, ChunksShorterThanTapCount) {
  const rvec taps = random_rvec(16, 1);
  const cvec input = random_cvec(40, 2);

  dsp::FirFilter one_shot(taps);
  const cvec expect = one_shot.process(input);

  // Feed 1..3-sample chunks (every chunk shorter than the 16 taps).
  dsp::FirFilter chunked(taps);
  cvec got;
  std::size_t pos = 0, step = 1;
  while (pos < input.size()) {
    const std::size_t n = std::min(step, input.size() - pos);
    const cvec out =
        chunked.process(std::span<const cplx>(input).subspan(pos, n));
    got.insert(got.end(), out.begin(), out.end());
    pos += n;
    step = step % 3 + 1;
  }
  EXPECT_TRUE(bit_equal(expect, got));
}

TEST(FirEdge, OddChunkSplitsAreInvariant) {
  const rvec taps = random_rvec(9, 3);
  const cvec input = random_cvec(1003, 4);  // prime-ish length

  dsp::FirFilter one_shot(taps);
  const cvec expect = one_shot.process(input);

  for (std::size_t chunk : {1u, 3u, 5u, 7u, 997u}) {
    dsp::FirFilter f(taps);
    cvec got;
    for (std::size_t pos = 0; pos < input.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, input.size() - pos);
      const cvec out =
          f.process(std::span<const cplx>(input).subspan(pos, n));
      got.insert(got.end(), out.begin(), out.end());
    }
    EXPECT_TRUE(bit_equal(expect, got)) << "chunk=" << chunk;
  }
}

TEST(FirEdge, MultipathChannelOddChunkInvariance) {
  const cvec taps = rf::exponential_pdp_taps(1.5, 6, 11);
  const cvec input = random_cvec(757, 5);

  rf::MultipathChannel one_shot(taps);
  cvec expect;
  one_shot.process(input, expect);

  for (std::size_t chunk : {1u, 2u, 3u, 13u, 251u}) {
    rf::MultipathChannel ch(taps);
    cvec got, out;
    for (std::size_t pos = 0; pos < input.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, input.size() - pos);
      ch.process(std::span<const cplx>(input).subspan(pos, n), out);
      got.insert(got.end(), out.begin(), out.end());
    }
    EXPECT_TRUE(bit_equal(expect, got)) << "chunk=" << chunk;
  }
}

TEST(FirEdge, JakesFaderOddChunkInvariance) {
  using rf::channels::DopplerSpectrum;
  const std::vector<rf::channels::WattersonPath> taps = {
      {0, 0.6}, {3, 0.3}, {7, 0.1}};
  const cvec input = random_cvec(501, 6);

  rf::channels::WattersonChannel one_shot(taps, DopplerSpectrum::kJakes,
                                          80.0, 1e6, 77, 16);
  cvec expect;
  one_shot.process(input, expect);

  for (std::size_t chunk : {1u, 4u, 9u, 100u}) {
    rf::channels::WattersonChannel ch(taps, DopplerSpectrum::kJakes, 80.0,
                                      1e6, 77, 16);
    cvec got, out;
    for (std::size_t pos = 0; pos < input.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, input.size() - pos);
      ch.process(std::span<const cplx>(input).subspan(pos, n), out);
      got.insert(got.end(), out.begin(), out.end());
    }
    EXPECT_TRUE(bit_equal(expect, got)) << "chunk=" << chunk;
  }
}

TEST(FirEdge, SnapshotRoundTripAfterShortChunks) {
  // Serialization keeps the circular-delay-line format: a filter that
  // consumed a few short chunks must restore into a fresh filter and
  // continue bit-identically.
  const rvec taps = random_rvec(8, 7);
  const cvec input = random_cvec(64, 8);

  dsp::FirFilter f(taps);
  (void)f.process(std::span<const cplx>(input).first(5));
  (void)f.process(std::span<const cplx>(input).subspan(5, 3));

  StateWriter w;
  f.save_state(w);
  dsp::FirFilter g(taps);
  StateReader r(w.bytes());
  g.load_state(r);

  const cvec a = f.process(std::span<const cplx>(input).subspan(8));
  const cvec b = g.process(std::span<const cplx>(input).subspan(8));
  EXPECT_TRUE(bit_equal(a, b));
}

}  // namespace
