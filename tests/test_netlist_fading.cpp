// Tests for the Netlist graph simulator and the time-varying channels
// (Rayleigh fading, impulsive noise).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "rf/channels/watterson.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace ofdm::rf {
namespace {

TEST(Netlist, LinearGraphMatchesChain) {
  // Source -> gain -> meter, built both ways.
  Netlist net;
  const auto src = net.add_source<ToneSource>(1e3, 1e6, 0.5);
  const auto gain = net.add_block<Gain>(6.0);
  const auto meter = net.add_block<PowerMeter>();
  net.connect(src, gain);
  net.connect(gain, meter);
  net.run(10000, 1024);
  const double net_power = net.node<PowerMeter>(meter).average_power();

  ToneSource tone(1e3, 1e6, 0.5);
  Chain chain;
  chain.add<Gain>(6.0);
  auto& chain_meter = chain.add<PowerMeter>();
  run(tone, chain, 10000, 1024);
  EXPECT_NEAR(net_power, chain_meter.average_power(), 1e-9);
}

TEST(Netlist, FanOutBroadcastsTheSameStream) {
  Netlist net;
  const auto src = net.add_source<ToneSource>(2e3, 1e6, 1.0);
  const auto cap_a = net.add_block<Capture>(1000);
  const auto cap_b = net.add_block<Capture>(1000);
  net.connect(src, cap_a);
  net.connect(src, cap_b);
  net.run(1000, 256);
  const cvec& a = net.node<Capture>(cap_a).samples();
  const cvec& b = net.node<Capture>(cap_b).samples();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LT(max_abs_error(a, b), 1e-15);
}

TEST(Netlist, FanInSumsLikeACombiner) {
  // Two tones at the same frequency and amplitude, in phase -> the
  // combined power is 4x a single tone's.
  Netlist net;
  const auto a = net.add_source<ToneSource>(5e3, 1e6, 1.0);
  const auto b = net.add_source<ToneSource>(5e3, 1e6, 1.0);
  const auto meter = net.add_block<PowerMeter>();
  net.connect(a, meter);
  net.connect(b, meter);
  net.run(20000, 4096);
  EXPECT_NEAR(net.node<PowerMeter>(meter).average_power(), 4.0, 1e-6);
}

TEST(Netlist, InterfererScenario) {
  // The classic RF-designer question the paper's co-modeling serves:
  // wanted 802.11a signal + adjacent interferer into one front end.
  // Everything at the WLAN baseband rate (20 MS/s): the wanted signal
  // occupies +-8.3 MHz, the CW interferer sits at +9.5 MHz in the
  // guard region below Nyquist.
  Netlist net;
  const auto wanted =
      net.add_source_ptr(std::make_unique<Submodel>(
          core::profile_wlan_80211a(), 100));
  const auto interferer =
      net.add_source<ToneSource>(9.5e6, 20e6, 0.3);
  const auto pa = net.add_block<RappPa>(2.0, 2.0);
  dsp::WelchConfig cfg;
  cfg.segment = 512;
  cfg.sample_rate = 20e6;
  const auto analyzer = net.add_block<SpectrumAnalyzer>(cfg);
  net.connect(wanted, pa);
  net.connect(interferer, pa);
  net.connect(pa, analyzer);
  net.run(1 << 15, 4096);

  const auto psd = net.node<SpectrumAnalyzer>(analyzer).psd();
  // Both the wanted signal (around DC) and the interferer must be
  // visible; the quiet gap between them stays well below both.
  const double gap = psd.band_power(8.6e6, 9.2e6);
  EXPECT_GT(psd.band_power(-8e6, 8e6), 20.0 * gap);
  EXPECT_GT(psd.band_power(9.3e6, 9.7e6), 2.0 * gap);
}

TEST(Netlist, RejectsCycles) {
  Netlist net;
  const auto a = net.add_block<Gain>(0.0);
  const auto b = net.add_block<Gain>(0.0);
  net.connect(a, b);
  net.connect(b, a);
  EXPECT_THROW(net.run(100), Error);
}

TEST(Netlist, RejectsDanglingBlock) {
  Netlist net;
  net.add_source<ToneSource>(1e3, 1e6);
  net.add_block<Gain>(0.0);  // never wired
  EXPECT_THROW(net.run(100), Error);
}

TEST(Netlist, RejectsDrivingASource) {
  Netlist net;
  const auto s1 = net.add_source<ToneSource>(1e3, 1e6);
  const auto s2 = net.add_source<ToneSource>(2e3, 1e6);
  EXPECT_THROW(net.connect(s1, s2), Error);
}

// --- fading -------------------------------------------------------------

using channels::WattersonChannel;
constexpr auto kJakes = channels::DopplerSpectrum::kJakes;

TEST(Fading, UnitAveragePowerAndRayleighEnvelope) {
  // Fast fading so the time average converges over the test window
  // (slow Doppler keeps near-DC sinusoids from averaging out).
  WattersonChannel ch({{0, 1.0}}, kJakes, /*doppler=*/500.0, /*fs=*/1e6, 77,
                      16);
  const cvec ones(200000, cplx{1.0, 0.0});
  const cvec out = ch.process(ones);
  // Average power ~ tap power.
  EXPECT_NEAR(mean_power(out), 1.0, 0.2);
  // The envelope must actually fade: deep fades well below average.
  double min_p = 1e9;
  double max_p = 0.0;
  for (const cplx& v : out) {
    min_p = std::min(min_p, std::norm(v));
    max_p = std::max(max_p, std::norm(v));
  }
  EXPECT_LT(min_p, 0.05);
  EXPECT_GT(max_p, 2.0);
}

TEST(Fading, DopplerControlsDecorrelationRate) {
  // Autocorrelation at a fixed lag decays faster for larger Doppler.
  auto correlation_at_lag = [](double doppler, std::size_t lag) {
    WattersonChannel ch({{0, 1.0}}, kJakes, doppler, 1e6, 42, 16);
    const cvec ones(50000, cplx{1.0, 0.0});
    const cvec g = ch.process(ones);
    cplx corr{0.0, 0.0};
    double power = 0.0;
    for (std::size_t i = 0; i + lag < g.size(); ++i) {
      corr += g[i] * std::conj(g[i + lag]);
      power += std::norm(g[i]);
    }
    return std::abs(corr) / power;
  };
  const double slow = correlation_at_lag(10.0, 2000);
  const double fast = correlation_at_lag(500.0, 2000);
  EXPECT_GT(slow, 0.9);
  EXPECT_LT(fast, 0.7);
}

TEST(Fading, MultiTapSpreadsDelay) {
  WattersonChannel ch({{0, 0.7}, {5, 0.3}}, kJakes, 50.0, 1e6, 7, 16);
  cvec impulse(20, cplx{0.0, 0.0});
  impulse[0] = {1.0, 0.0};
  const cvec out = ch.process(impulse);
  EXPECT_GT(std::abs(out[0]), 0.0);
  EXPECT_GT(std::abs(out[5]), 0.0);
  EXPECT_NEAR(std::abs(out[3]), 0.0, 1e-12);  // nothing between taps
}

TEST(Fading, ResetReproducesTheProcess) {
  WattersonChannel ch({{0, 1.0}}, kJakes, 100.0, 1e6, 11, 16);
  const cvec ones(1000, cplx{1.0, 0.0});
  const cvec a = ch.process(ones);
  ch.reset();
  const cvec b = ch.process(ones);
  EXPECT_LT(max_abs_error(a, b), 1e-12);
}

// --- impulse noise --------------------------------------------------------

TEST(ImpulseNoise, QuietBetweenBursts) {
  ImpulseNoise noise(1e-4, 20.0, 100.0, 3);
  const cvec silence(100000, cplx{0.0, 0.0});
  const cvec out = noise.process(silence);
  std::size_t hit = 0;
  for (const cplx& v : out) hit += std::abs(v) > 0.0;
  // Duty cycle ~ rate * mean_len = 0.002.
  EXPECT_GT(hit, 20u);
  EXPECT_LT(hit, 3000u);
  EXPECT_GT(noise.bursts_seen(), 2u);
}

TEST(ImpulseNoise, BurstPowerIsCalibrated) {
  ImpulseNoise noise(1.0, 1e9, 4.0, 4);  // permanently bursting
  const cvec silence(50000, cplx{0.0, 0.0});
  const cvec out = noise.process(silence);
  EXPECT_NEAR(mean_power(out), 4.0, 0.2);
}

TEST(ImpulseNoise, ZeroRateIsTransparent) {
  ImpulseNoise noise(0.0, 10.0, 100.0, 5);
  Rng rng(6);
  cvec x(1000);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  EXPECT_LT(max_abs_error(noise.process(x), x), 1e-15);
}

}  // namespace
}  // namespace ofdm::rf

// --- PAPR reduction -------------------------------------------------------
// (Lives here with the other rf extensions.)
#include "metrics/papr.hpp"
#include "rf/papr_reduction.hpp"

namespace ofdm::rf {
namespace {

TEST(ClipAndFilter, ReducesPaprTowardTarget) {
  Rng rng(31);
  cvec x(20000);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);  // OFDM-like envelope
  const double before = metrics::papr_db(x);
  ClipAndFilter caf(5.0, 0.4, 2);
  const cvec y = caf.process(x);
  const double after = metrics::papr_db(y);
  EXPECT_GT(before, 9.0);
  EXPECT_LT(after, 7.0);  // filtering regrows peaks slightly above 5 dB
  EXPECT_LT(after, before - 2.0);
}

TEST(ClipAndFilter, OutputStaysTimeAligned) {
  // Cross-correlation between input and output peaks at lag zero: the
  // filter group delay is compensated internally.
  Rng rng(32);
  cvec x(4096);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  ClipAndFilter caf(6.0, 0.4, 1);
  const cvec y = caf.process(x);
  ASSERT_EQ(y.size(), x.size());
  double best = -1.0;
  long best_lag = -999;
  for (long lag = -40; lag <= 40; ++lag) {
    cplx corr{0.0, 0.0};
    for (std::size_t i = 100; i + 100 < x.size(); ++i) {
      const long j = static_cast<long>(i) + lag;
      corr += y[static_cast<std::size_t>(j)] * std::conj(x[i]);
    }
    if (std::abs(corr) > best) {
      best = std::abs(corr);
      best_lag = lag;
    }
  }
  EXPECT_EQ(best_lag, 0);
}

TEST(ClipAndFilter, BelowLevelSignalPassesAlmostUntouched) {
  // A constant-envelope tone below the clip level only sees the
  // (unity-DC-gain) lowpass.
  ToneSource tone(0.01e6, 1e6, 1.0);
  const cvec x = tone.pull(4096);
  ClipAndFilter caf(6.0, 0.3, 1);
  const cvec y = caf.process(x);
  double err = 0.0;
  for (std::size_t i = 200; i + 200 < x.size(); ++i) {
    err += std::norm(y[i] - x[i]);
  }
  EXPECT_LT(err / static_cast<double>(x.size() - 400), 0.01);
}

TEST(ClipAndFilter, RejectsEvenTapCount) {
  EXPECT_THROW(ClipAndFilter(5.0, 0.4, 1, 64), Error);
}

}  // namespace
}  // namespace ofdm::rf
