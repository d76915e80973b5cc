// Statistical validation of the standard channel-model library
// (src/rf/channels): Rayleigh envelope statistics and Gaussian Doppler
// spectrum width of the Watterson fading process, the Jakes spectrum's
// Clarke statistics and its bit-identity pin, Rician K-factor
// recovery, the published ITU-R M.1225 / SUI tap tables, oscillator
// drift frequency trajectories, registry metadata and seeded
// bit-reproducibility. Every test runs under a fixed seed and asserts
// deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/types.hpp"
#include "obs/stream_hash.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/cfo.hpp"
#include "rf/channels/doppler.hpp"
#include "rf/channels/registry.hpp"
#include "rf/channels/rician.hpp"
#include "rf/channels/tdl.hpp"
#include "rf/channels/watterson.hpp"

namespace ofdm::rf::channels {
namespace {

// Streams a constant-1 input through a flat (single-path, zero-delay)
// channel block, so the output IS the gain trajectory.
cvec gain_trajectory(Block& block, std::size_t n) {
  const cvec ones(n, cplx{1.0, 0.0});
  return block.process(ones);
}

// ---------------------------------------------------------------------
// Rayleigh envelope statistics of the Gaussian-Doppler process
// ---------------------------------------------------------------------

TEST(RayleighEnvelope, MomentRatioMatchesRayleigh) {
  // Single Watterson path = one Gaussian-Doppler Rayleigh process.
  // For a Rayleigh envelope r: E[r^2] / E[r]^2 = 4 / pi.
  WattersonChannel ch({{0, 1.0}}, DopplerSpectrum::kGaussian, 200.0, 2000.0,
                      71, 64);
  const cvec g = gain_trajectory(ch, 120000);
  double sum_r = 0.0;
  double sum_r2 = 0.0;
  for (const cplx& v : g) {
    const double r = std::abs(v);
    sum_r += r;
    sum_r2 += r * r;
  }
  const double n = static_cast<double>(g.size());
  const double ratio = (sum_r2 / n) / ((sum_r / n) * (sum_r / n));
  EXPECT_NEAR(ratio, 4.0 / kPi, 0.06);
  // Unit average power: the per-path normalization contract the
  // campaign's SNR definition relies on.
  EXPECT_NEAR(sum_r2 / n, 1.0, 0.08);
}

TEST(RayleighEnvelope, KolmogorovSmirnovAgainstRayleighCdf) {
  WattersonChannel ch({{0, 1.0}}, DopplerSpectrum::kGaussian, 200.0, 2000.0,
                      72, 64);
  const cvec g = gain_trajectory(ch, 120000);
  // Subsample well past the decorrelation time (~1/sigma_rad ≈ 3
  // samples here) so the KS statistic sees near-independent draws.
  rvec r;
  for (std::size_t i = 0; i < g.size(); i += 16) r.push_back(std::abs(g[i]));
  double p = 0.0;
  for (double v : r) p += v * v;
  p /= static_cast<double>(r.size());
  std::sort(r.begin(), r.end());
  double d = 0.0;
  const double n = static_cast<double>(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    const double cdf = 1.0 - std::exp(-r[i] * r[i] / p);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::abs(cdf - lo), std::abs(hi - cdf)));
  }
  // 64 sinusoids per branch: close to Gaussian quadratures but not
  // exact, so the bound is looser than the 5% critical value.
  EXPECT_LT(d, 0.06);
}

// ---------------------------------------------------------------------
// Gaussian Doppler spectrum width
// ---------------------------------------------------------------------

TEST(GaussianDoppler, AutocorrelationRecoversSpectrumWidth) {
  // Gaussian Doppler spectrum of std sigma (rad/sample) has complex-
  // gain autocorrelation rho(m) = exp(-sigma^2 m^2 / 2); invert at one
  // lag to estimate sigma and compare with the width the realization
  // actually carries.
  const double sigma = 0.05;
  Rng rng(73);
  DopplerProcess proc(DopplerSpectrum::kGaussian, 1.0, sigma, 256, rng);
  const std::size_t n = 50000;
  cvec g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = proc.gain();
    proc.advance();
  }
  const std::size_t lag = 20;  // expected rho ≈ exp(-0.5) ≈ 0.61
  cplx num{0.0, 0.0};
  double den = 0.0;
  for (std::size_t i = 0; i + lag < n; ++i) {
    num += g[i + lag] * std::conj(g[i]);
    den += std::norm(g[i]);
  }
  const double rho = std::abs(num) / den;
  ASSERT_GT(rho, 0.0);
  ASSERT_LT(rho, 1.0);
  const double sigma_hat =
      std::sqrt(-2.0 * std::log(rho)) / static_cast<double>(lag);
  EXPECT_NEAR(sigma_hat, proc.realized_sigma_rad(),
              0.15 * proc.realized_sigma_rad());
  EXPECT_NEAR(proc.realized_sigma_rad(), sigma, 0.2 * sigma);
}

TEST(GaussianDoppler, WattersonPresetsCarryNominalSpread) {
  // The realized sum-of-sinusoids width must track the ITU nominal
  // spread for every CCIR condition (finite-realization tolerance:
  // 32 sinusoids drawn per path).
  for (CcirCondition c :
       {CcirCondition::kGood, CcirCondition::kModerate,
        CcirCondition::kPoor, CcirCondition::kFlutter}) {
    const WattersonPreset& p = watterson_preset(c);
    auto ch = make_watterson(c, 48e3, 2020);
    ASSERT_EQ(ch->n_paths(), 2u) << p.name;
    EXPECT_EQ(ch->doppler_hz(), p.doppler_spread_hz) << p.name;
    for (std::size_t path = 0; path < 2; ++path) {
      EXPECT_NEAR(ch->realized_spread_hz(path), p.doppler_spread_hz,
                  0.4 * p.doppler_spread_hz)
          << p.name << " path " << path;
    }
  }
}

// ---------------------------------------------------------------------
// Watterson structure and CCIR preset table
// ---------------------------------------------------------------------

TEST(Watterson, CcirPresetTableMatchesItuR_F1487) {
  const struct {
    CcirCondition c;
    const char* name;
    double delay_ms;
    double spread_hz;
  } expected[] = {
      {CcirCondition::kGood, "ccir_good", 0.5, 0.1},
      {CcirCondition::kModerate, "ccir_moderate", 1.0, 0.5},
      {CcirCondition::kPoor, "ccir_poor", 2.0, 1.0},
      {CcirCondition::kFlutter, "ccir_flutter", 0.5, 10.0},
  };
  for (const auto& e : expected) {
    const WattersonPreset& p = watterson_preset(e.c);
    EXPECT_STREQ(p.name, e.name);
    EXPECT_EQ(p.delay_ms, e.delay_ms);
    EXPECT_EQ(p.doppler_spread_hz, e.spread_hz);
  }
}

TEST(Watterson, TwoPathImpulseResponseHasPresetDelay) {
  // ccir_poor at 48 kS/s: paths at 0 and round(2 ms * 48 kHz) = 96
  // samples. An impulse must come out on exactly those two taps.
  auto ch = make_watterson(CcirCondition::kPoor, 48e3, 11);
  cvec x(200, cplx{0.0, 0.0});
  x[0] = cplx{1.0, 0.0};
  const cvec y = ch->process(x);
  EXPECT_GT(std::abs(y[0]), 0.0);
  EXPECT_GT(std::abs(y[96]), 0.0);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (i == 0 || i == 96) continue;
    EXPECT_EQ(std::abs(y[i]), 0.0) << "unexpected energy at " << i;
  }
}

// ---------------------------------------------------------------------
// Jakes spectrum: bit-identity pin and Clarke statistics
// ---------------------------------------------------------------------

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::unique_ptr<WattersonChannel> jakes_pin_fader() {
  return std::make_unique<WattersonChannel>(
      std::vector<WattersonPath>{{0, 0.6}, {3, 0.3}, {7, 0.1}},
      DopplerSpectrum::kJakes, 80.0, 1e6, 77, 16);
}

TEST(JakesFader, ReproducesRecordedDigests) {
  // Recorded from the dedicated Jakes fader class that the kJakes
  // spectrum replaced, with the same taps, Doppler, seed and sinusoid
  // count. Output, block snapshot (after 3000 samples) and the
  // snapshot of a chain framing the fader by name must all match bit
  // for bit, under every SIMD tier.
  constexpr std::uint64_t kOutputDigest = 0xb8ff35897368dda1ULL;
  constexpr std::uint64_t kStateDigest = 0xc848333b54249c40ULL;
  constexpr std::uint64_t kChainDigest = 0x69dce3496fa734b3ULL;

  Rng rng(4242);
  cvec x(8192);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  const auto head = std::span<const cplx>(x).first(3000);

  EXPECT_EQ(obs::hash_samples(jakes_pin_fader()->process(x)),
            kOutputDigest);

  auto fader = jakes_pin_fader();
  EXPECT_EQ(fader->name(), "fading");
  (void)fader->process(head);
  StateWriter w;
  fader->save_state(w);
  EXPECT_EQ(fnv1a(w.bytes()), kStateDigest);

  Chain chain;
  chain.add_ptr(jakes_pin_fader());
  chain.add<AwgnChannel>(1e-3, 23);
  (void)chain.process(head);
  StateWriter cw;
  chain.save_state(cw);
  EXPECT_EQ(fnv1a(cw.bytes()), kChainDigest);
}

// ---------------------------------------------------------------------
// Live-path rule: a path whose delayed sample is exactly zero skips its
// gain evaluation. Digests recorded from the fader that evaluated every
// path on every sample; they must hold in one call, in odd chunks and
// across a snapshot/restore, under every SIMD tier.
// ---------------------------------------------------------------------

struct StreamDigests {
  std::uint64_t output = 0;
  std::uint64_t state = 0;
};

using FaderFactory = std::unique_ptr<WattersonChannel> (*)();

StreamDigests digests_of(const cvec& out, const WattersonChannel& ch) {
  StateWriter w;
  ch.save_state(w);
  return {obs::hash_samples(out), fnv1a(w.bytes())};
}

// Runs `x` through fresh faders in one call, in chunks of 1, 7 and 333,
// and split at `cut` with a save/load into a new fader; every way must
// give the one-call digests, which are returned.
StreamDigests live_path_digests(FaderFactory make, const cvec& x,
                                std::size_t cut) {
  auto whole = make();
  const StreamDigests ref = digests_of(whole->process(x), *whole);

  for (std::size_t chunk : {1u, 7u, 333u}) {
    auto ch = make();
    cvec out;
    cvec part;
    for (std::size_t i = 0; i < x.size(); i += chunk) {
      const std::size_t n = std::min(chunk, x.size() - i);
      ch->process(std::span<const cplx>(x).subspan(i, n), part);
      out.insert(out.end(), part.begin(), part.end());
    }
    const StreamDigests d = digests_of(out, *ch);
    EXPECT_EQ(d.output, ref.output) << "chunk " << chunk;
    EXPECT_EQ(d.state, ref.state) << "chunk " << chunk;
  }

  auto first = make();
  cvec out = first->process(std::span<const cplx>(x).first(cut));
  StateWriter w;
  first->save_state(w);
  auto second = make();
  StateReader r(w.bytes());
  second->load_state(r);
  const cvec rest = second->process(std::span<const cplx>(x).subspan(cut));
  out.insert(out.end(), rest.begin(), rest.end());
  const StreamDigests d = digests_of(out, *second);
  EXPECT_EQ(d.output, ref.output) << "snapshot at " << cut;
  EXPECT_EQ(d.state, ref.state) << "snapshot at " << cut;
  return ref;
}

TEST(WattersonLivePath, EchoBeyondStreamMatchesRecordedDigests) {
  // ccir_poor at 20 MS/s puts the second path 40,000 samples out: over
  // a 1,500-sample stream it only ever reads the zero-primed line.
  constexpr std::uint64_t kOutputDigest = 0x278938ad1a645b19ULL;
  constexpr std::uint64_t kStateDigest = 0xd9b6e6e387034574ULL;
  FaderFactory make = [] {
    return make_watterson(CcirCondition::kPoor, 20e6, 909);
  };
  Rng rng(515);
  cvec x(1500);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  const StreamDigests d = live_path_digests(make, x, 700);
  EXPECT_EQ(d.output, kOutputDigest);
  EXPECT_EQ(d.state, kStateDigest);
}

TEST(WattersonLivePath, ZeroRunsAndSignedZerosMatchRecordedDigests) {
  // Three Jakes paths, delays 0 / 2 / 5. The stream opens with zeros,
  // has an isolated zero inside a live run, interior zero runs shorter
  // and longer than the largest delay, and samples with -0.0 parts.
  constexpr std::uint64_t kOutputDigest = 0x74a56a72c5a08611ULL;
  constexpr std::uint64_t kStateDigest = 0x63af19cb0ee5d677ULL;
  FaderFactory make = [] {
    return std::make_unique<WattersonChannel>(
        std::vector<WattersonPath>{{0, 0.5}, {2, 0.3}, {5, 0.2}},
        DopplerSpectrum::kJakes, 300.0, 1e5, 31, 16);
  };
  Rng rng(616);
  cvec x(600);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  for (std::size_t i = 0; i < 12; ++i) x[i] = {0.0, 0.0};
  x[60] = {0.0, 0.0};
  for (std::size_t i = 100; i < 103; ++i) x[i] = {-0.0, 0.0};
  for (std::size_t i = 200; i < 240; ++i) {
    x[i] = i % 2 == 0 ? cplx{-0.0, -0.0} : cplx{0.0, -0.0};
  }
  x[300] = {-0.0, 0.7};  // one zero part: the path stays live
  x[301] = {0.4, -0.0};
  for (std::size_t i = 450; i < 470; ++i) x[i] = {0.0, 0.0};
  const StreamDigests d = live_path_digests(make, x, 220);
  EXPECT_EQ(d.output, kOutputDigest);
  EXPECT_EQ(d.state, kStateDigest);
}

TEST(JakesFader, RealizedDopplerMatchesClarkeRms) {
  // The Clarke U-shaped spectrum of maximum Doppler fd has RMS Doppler
  // fd / sqrt(2); the +-0.1 rad angle jitter keeps a 16-sinusoid
  // realization within 5% of it, and no sinusoid exceeds fd.
  const double fd_rad = kTwoPi * 80.0 / 1e6;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const DopplerProcess proc(DopplerSpectrum::kJakes, 1.0, fd_rad, 16,
                              rng);
    EXPECT_NEAR(proc.realized_sigma_rad(), fd_rad / std::sqrt(2.0),
                0.05 * fd_rad / std::sqrt(2.0))
        << "seed " << seed;
    for (double f : proc.frequencies()) {
      EXPECT_LE(std::abs(f), fd_rad) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------
// Rician K-factor recovery
// ---------------------------------------------------------------------

TEST(Rician, MomentEstimatorRecoversKFactor) {
  // With a static LOS line (los_doppler = 0), K = |E[g]|^2 / Var[g].
  for (double k : {1.0, 5.0, 10.0}) {
    RicianChannel ch(k, 200.0, 2000.0, 81, 0.0, 64);
    const cvec g = gain_trajectory(ch, 120000);
    cplx mean{0.0, 0.0};
    for (const cplx& v : g) mean += v;
    mean /= static_cast<double>(g.size());
    double var = 0.0;
    for (const cplx& v : g) var += std::norm(v - mean);
    var /= static_cast<double>(g.size());
    const double k_hat = std::norm(mean) / var;
    EXPECT_NEAR(k_hat, k, 0.3 * k) << "K = " << k;
    // Total power normalized to 1 regardless of K.
    double pwr = 0.0;
    for (const cplx& v : g) pwr += std::norm(v);
    EXPECT_NEAR(pwr / static_cast<double>(g.size()), 1.0, 0.1);
  }
}

// ---------------------------------------------------------------------
// Tapped-delay-line profile tables (published values)
// ---------------------------------------------------------------------

TEST(TdlProfiles, ItuPedestrianAndVehicularTables) {
  const TdlProfile& ped_a = tdl_profile("itu_ped_a");
  const double ped_a_delays[] = {0.0, 0.11, 0.19, 0.41};
  const double ped_a_powers[] = {0.0, -9.7, -19.2, -22.8};
  ASSERT_EQ(ped_a.taps.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ped_a.taps[i].delay_us, ped_a_delays[i]);
    EXPECT_EQ(ped_a.taps[i].power_db, ped_a_powers[i]);
    EXPECT_EQ(ped_a.taps[i].k_factor, 0.0);
  }

  const TdlProfile& veh_a = tdl_profile("itu_veh_a");
  const double veh_a_delays[] = {0.0, 0.31, 0.71, 1.09, 1.73, 2.51};
  const double veh_a_powers[] = {0.0, -1.0, -9.0, -10.0, -15.0, -20.0};
  ASSERT_EQ(veh_a.taps.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(veh_a.taps[i].delay_us, veh_a_delays[i]);
    EXPECT_EQ(veh_a.taps[i].power_db, veh_a_powers[i]);
  }
  EXPECT_EQ(veh_a.doppler_hz, 185.0);

  const TdlProfile& veh_b = tdl_profile("itu_veh_b");
  ASSERT_EQ(veh_b.taps.size(), 6u);
  EXPECT_EQ(veh_b.taps[0].power_db, -2.5);
  EXPECT_EQ(veh_b.taps[1].power_db, 0.0);  // strongest tap delayed
  EXPECT_EQ(tdl_delay_spread_us(veh_b), 20.0);
}

TEST(TdlProfiles, SuiTablesAndRicianFirstTaps) {
  // SUI-1..3 have Rician first taps (K = 4, 2, 1); SUI-4..6 are pure
  // Rayleigh. Delay spreads grow from 0.9 us (SUI-1) to 20 us (SUI-6).
  const struct {
    const char* name;
    double k0;
    double spread_us;
  } expected[] = {
      {"sui_1", 4.0, 0.9}, {"sui_2", 2.0, 1.1}, {"sui_3", 1.0, 0.9},
      {"sui_4", 0.0, 4.0}, {"sui_5", 0.0, 10.0}, {"sui_6", 0.0, 20.0},
  };
  for (const auto& e : expected) {
    const TdlProfile& p = tdl_profile(e.name);
    ASSERT_EQ(p.taps.size(), 3u) << e.name;
    EXPECT_EQ(p.taps[0].k_factor, e.k0) << e.name;
    EXPECT_EQ(tdl_delay_spread_us(p), e.spread_us) << e.name;
  }
  const TdlProfile& sui_3 = tdl_profile("sui_3");
  EXPECT_EQ(sui_3.taps[1].delay_us, 0.4);
  EXPECT_EQ(sui_3.taps[1].power_db, -5.0);
  EXPECT_EQ(sui_3.taps[2].delay_us, 0.9);
  EXPECT_EQ(sui_3.taps[2].power_db, -10.0);
}

TEST(TdlProfiles, UnknownProfileThrowsNamingIt) {
  EXPECT_EQ(find_tdl_profile("itu_ped_c"), nullptr);
  try {
    tdl_profile("itu_ped_c");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("itu_ped_c"), std::string::npos);
  }
}

TEST(TdlRealization, UnitPowerAndSampleGridPlacement) {
  // itu_veh_a at 20 MS/s: delays bin to samples {0, 6, 14, 22, 35, 50}.
  const cvec taps = tdl_realization(tdl_profile("itu_veh_a"), 20e6, 5);
  ASSERT_EQ(taps.size(), 51u);
  const std::size_t bins[] = {0, 6, 14, 22, 35, 50};
  double total = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const bool expected_nonzero =
        std::find(std::begin(bins), std::end(bins), i) != std::end(bins);
    EXPECT_EQ(std::abs(taps[i]) > 0.0, expected_nonzero) << "bin " << i;
    total += std::norm(taps[i]);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(TdlRealization, SeededAndReproducible) {
  const TdlProfile& p = tdl_profile("sui_3");
  const cvec a = tdl_realization(p, 8e6, 101);
  const cvec b = tdl_realization(p, 8e6, 101);
  const cvec c = tdl_realization(p, 8e6, 102);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// Oscillator drift
// ---------------------------------------------------------------------

TEST(OscillatorDriftBlock, InstantaneousFrequencyRampsLinearly) {
  const double fs = 1e6;
  const double cfo = 200.0;
  const double drift = 100.0;
  OscillatorDrift ch(cfo, drift, fs);
  const std::size_t n = 500001;  // 0.5 s
  const cvec y = gain_trajectory(ch, n);
  auto inst_freq = [&](std::size_t i) {
    return std::arg(y[i + 1] * std::conj(y[i])) * fs / kTwoPi;
  };
  EXPECT_NEAR(inst_freq(0), cfo, 1e-3);
  EXPECT_NEAR(inst_freq(n - 2),
              cfo + drift * static_cast<double>(n - 2) / fs, 1e-3);
  // Pure phase rotation: modulus must stay exactly 1.
  for (std::size_t i = 0; i < n; i += 50000) {
    EXPECT_NEAR(std::abs(y[i]), 1.0, 1e-12);
  }
}

// ---------------------------------------------------------------------
// Registry: metadata, construction, reproducibility
// ---------------------------------------------------------------------

TEST(Registry, ListsAllFamilies) {
  EXPECT_EQ(presets().size(), 19u);  // 4 CCIR + 10 TDL + 3 Rician + 2 CFO
  const PresetInfo* poor = find_preset("ccir_poor");
  ASSERT_NE(poor, nullptr);
  EXPECT_EQ(poor->family, "watterson");
  EXPECT_EQ(poor->paths, 2u);
  EXPECT_EQ(poor->delay_spread_us, 2000.0);
  EXPECT_EQ(poor->doppler_hz, 1.0);
  EXPECT_TRUE(poor->time_varying);

  const PresetInfo* sui = find_preset("sui_3");
  ASSERT_NE(sui, nullptr);
  EXPECT_EQ(sui->family, "tdl");
  EXPECT_EQ(sui->paths, 3u);
  EXPECT_FALSE(sui->time_varying);

  ASSERT_NE(find_preset("rician_k10"), nullptr);
  ASSERT_NE(find_preset("cfo_drift"), nullptr);
  EXPECT_EQ(find_preset("rayleigh"), nullptr);
  EXPECT_NE(preset_names().find("itu_veh_a"), std::string::npos);
}

TEST(Registry, EveryPresetConstructsAndRunsFinite) {
  MakeOptions opts;
  opts.sample_rate = 1e6;
  opts.seed = 404;
  for (const PresetInfo& info : presets()) {
    auto block = make_preset(info.name, opts);
    ASSERT_NE(block, nullptr) << info.name;
    Rng rng(9);
    cvec x(512);
    for (cplx& v : x) v = rng.complex_gaussian(1.0);
    const cvec y = block->process(x);
    ASSERT_EQ(y.size(), x.size()) << info.name;
    for (const cplx& v : y) {
      ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()))
          << info.name;
    }
  }
}

TEST(Registry, SeededBitReproducibility) {
  Rng rng(10);
  cvec x(1024);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  MakeOptions opts;
  opts.sample_rate = 20e6;
  opts.seed = 555;
  for (const char* name : {"ccir_poor", "itu_veh_a", "sui_3",
                           "rician_k5", "cfo_drift"}) {
    const cvec a = make_preset(name, opts)->process(x);
    const cvec b = make_preset(name, opts)->process(x);
    EXPECT_EQ(a, b) << name;
    MakeOptions other = opts;
    other.seed = 556;
    const cvec c = make_preset(name, other)->process(x);
    if (std::string(name).rfind("cfo", 0) == 0) {
      EXPECT_EQ(a, c) << name << " (cfo presets are deterministic)";
    } else {
      EXPECT_NE(a, c) << name;
    }
  }
}

TEST(Registry, UnknownPresetAndBadOptionsThrow) {
  try {
    make_preset("itu_ped_c", {});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("itu_ped_c"), std::string::npos);
    EXPECT_NE(msg.find("ccir_good"), std::string::npos);  // lists known
  }
  MakeOptions bad;
  bad.doppler_scale = 0.0;
  EXPECT_THROW(make_preset("ccir_poor", bad), ConfigError);
  MakeOptions bad_fs;
  bad_fs.sample_rate = 0.0;
  EXPECT_THROW(make_preset("ccir_poor", bad_fs), ConfigError);
}

TEST(DopplerProcessRefusals, InvalidConfigThrows) {
  Rng rng(1);
  for (DopplerSpectrum s :
       {DopplerSpectrum::kGaussian, DopplerSpectrum::kJakes}) {
    EXPECT_THROW(DopplerProcess(s, -0.1, 0.01, 32, rng), ConfigError);
    EXPECT_THROW(DopplerProcess(s, 1.0, -0.01, 32, rng), ConfigError);
  }
  // Each spectrum keeps its own minimum sinusoid count.
  EXPECT_THROW(DopplerProcess(DopplerSpectrum::kGaussian, 1.0, 0.01, 7, rng),
               ConfigError);
  EXPECT_NO_THROW(
      DopplerProcess(DopplerSpectrum::kGaussian, 1.0, 0.01, 8, rng));
  EXPECT_THROW(DopplerProcess(DopplerSpectrum::kJakes, 1.0, 0.01, 3, rng),
               ConfigError);
  EXPECT_NO_THROW(DopplerProcess(DopplerSpectrum::kJakes, 1.0, 0.01, 4, rng));
  // A negative path power would make the Jakes gains NaN; it is refused.
  EXPECT_THROW(WattersonChannel({{0, 1.0}, {3, -0.2}},
                                DopplerSpectrum::kJakes, 80.0, 1e6, 7, 16),
               ConfigError);
  EXPECT_THROW(WattersonChannel({}, DopplerSpectrum::kJakes, 80.0, 1e6),
               ConfigError);
  EXPECT_THROW(WattersonChannel({{0, 1.0}}, DopplerSpectrum::kJakes, -1.0,
                                1e6),
               ConfigError);
}

TEST(Registry, DopplerScaleSpeedsUpFading) {
  // Same seed, 10x Doppler scale: the scaled channel must decorrelate
  // faster (smaller lag-k autocorrelation of the gain process).
  MakeOptions slow;
  slow.sample_rate = 48e3;
  slow.seed = 77;
  MakeOptions fast = slow;
  fast.doppler_scale = 10.0;
  auto corr_at = [](Block& ch, std::size_t lag) {
    const cvec ones(20000, cplx{1.0, 0.0});
    const cvec g = ch.process(ones);
    cplx num{0.0, 0.0};
    double den = 0.0;
    for (std::size_t i = 0; i + lag < g.size(); ++i) {
      num += g[i + lag] * std::conj(g[i]);
      den += std::norm(g[i]);
    }
    return std::abs(num) / den;
  };
  auto a = make_preset("ccir_flutter", slow);
  auto b = make_preset("ccir_flutter", fast);
  const std::size_t lag = 200;
  EXPECT_GT(corr_at(*a, lag), corr_at(*b, lag) + 0.05);
}

}  // namespace
}  // namespace ofdm::rf::channels
