// RF system simulator tests: block math (gain, PA curves, noise, mixers,
// impairments, channels), the Submodel source, and the chain driver.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace ofdm::rf {
namespace {

cvec random_signal(std::size_t n, double power, std::uint64_t seed) {
  Rng rng(seed);
  cvec x(n);
  for (cplx& v : x) v = rng.complex_gaussian(power);
  return x;
}

TEST(Gain, ScalesPowerByDb) {
  Gain g(6.0);
  const cvec x = random_signal(1000, 1.0, 1);
  const cvec y = g.process(x);
  EXPECT_NEAR(mean_power(y) / mean_power(x), from_db(6.0), 1e-9);
}

TEST(RappPa, LinearAtSmallSignalSaturatesAtLarge) {
  RappPa pa(2.0, 1.0);
  EXPECT_NEAR(pa.am_am(0.01), 0.01, 1e-5);          // linear region
  EXPECT_NEAR(pa.am_am(100.0), 1.0, 0.01);          // saturated
  EXPECT_LT(pa.am_am(1.0), 1.0);                    // compression at v_sat
  // Monotone non-decreasing.
  double prev = 0.0;
  for (double r = 0.0; r < 5.0; r += 0.1) {
    EXPECT_GE(pa.am_am(r) + 1e-12, prev);
    prev = pa.am_am(r);
  }
}

TEST(RappPa, PreservesPhase) {
  RappPa pa(3.0, 1.0);
  const cplx in{0.6, 0.8};
  const cvec out = pa.process(cvec{in});
  EXPECT_NEAR(std::arg(out[0]), std::arg(in), 1e-12);
}

TEST(SalehPa, HasAmPmConversion) {
  SalehPa pa;
  // AM/AM peaks near r = 1/sqrt(beta_a) then compresses.
  EXPECT_GT(pa.am_am(0.5), 0.0);
  EXPECT_GT(pa.am_pm(1.0), 0.1);  // noticeable phase rotation
  const cplx in{1.0, 0.0};
  const cvec out = pa.process(cvec{in});
  EXPECT_GT(std::abs(std::arg(out[0])), 0.1);
}

TEST(SoftClipPa, ClipsExactlyAtLevel) {
  SoftClipPa pa(0.5);
  EXPECT_EQ(pa.am_am(0.3), 0.3);
  EXPECT_EQ(pa.am_am(0.7), 0.5);
}

TEST(Awgn, NoisePowerIsCalibrated) {
  AwgnChannel ch(0.25, 7);
  const cvec silence(200000, cplx{0.0, 0.0});
  const cvec out = ch.process(silence);
  EXPECT_NEAR(mean_power(out), 0.25, 0.01);
}

TEST(Awgn, SnrHelper) {
  EXPECT_NEAR(snr_to_noise_power(2.0, 10.0), 0.2, 1e-12);
}

TEST(Multipath, MatchesDirectConvolutionSteadyState) {
  const cvec taps = {cplx{0.8, 0.0}, cplx{0.0, 0.4}, cplx{-0.2, 0.1}};
  MultipathChannel ch(taps);
  const cvec x = random_signal(64, 1.0, 8);
  const cvec y = ch.process(x);
  for (std::size_t i = 2; i < x.size(); ++i) {
    cplx expect{0.0, 0.0};
    for (std::size_t t = 0; t < taps.size(); ++t) {
      expect += x[i - t] * taps[t];
    }
    EXPECT_NEAR(std::abs(y[i] - expect), 0.0, 1e-12);
  }
}

TEST(Multipath, ExponentialPdpIsUnitPower) {
  const cvec taps = exponential_pdp_taps(3.0, 12, 9);
  double p = 0.0;
  for (const cplx& t : taps) p += std::norm(t);
  EXPECT_NEAR(p, 1.0, 1e-12);
}

TEST(FrequencyShift, MovesAToneExactly) {
  ToneSource src(1000.0, 48000.0);
  FrequencyShift shift(500.0, 48000.0);
  const cvec x = src.pull(4800);
  const cvec y = shift.process(x);
  // y must be a 1.5 kHz tone: correlate against it.
  cplx corr{0.0, 0.0};
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double a = kTwoPi * 1500.0 * static_cast<double>(i) / 48000.0;
    corr += y[i] * std::conj(cplx{std::cos(a), std::sin(a)});
  }
  EXPECT_NEAR(std::abs(corr) / static_cast<double>(y.size()), 1.0, 1e-6);
}

TEST(IqImbalance, ImageRejectionMatchesFormula) {
  IqImbalance imb(1.0, 5.0);
  // A clean positive-frequency tone leaks into the negative frequency at
  // the predicted image rejection ratio.
  ToneSource src(1000.0, 48000.0);
  const cvec x = imb.process(src.pull(48000));
  cplx want{0.0, 0.0};
  cplx image{0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double a = kTwoPi * 1000.0 * static_cast<double>(i) / 48000.0;
    const cplx e{std::cos(a), std::sin(a)};
    want += x[i] * std::conj(e);
    image += x[i] * e;  // conj(e^{-j}) picks the -1 kHz component
  }
  const double irr = to_db(std::norm(want) / std::norm(image));
  EXPECT_NEAR(irr, imb.image_rejection_db(), 0.5);
}

TEST(DcOffset, AddsBias) {
  DcOffset dc(cplx{0.1, -0.2});
  const cvec out = dc.process(cvec(10, cplx{0.0, 0.0}));
  for (const cplx& v : out) {
    EXPECT_EQ(v, (cplx{0.1, -0.2}));
  }
}

TEST(PhaseNoise, PreservesMagnitudeAddsPhaseWalk) {
  PhaseNoise pn(1000.0, 1e6, 5);
  const cvec x(10000, cplx{1.0, 0.0});
  const cvec y = pn.process(x);
  double maxdev = 0.0;
  for (const cplx& v : y) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
    maxdev = std::max(maxdev, std::abs(std::arg(v)));
  }
  EXPECT_GT(maxdev, 0.01);  // the phase actually wanders
}

TEST(Dac, QuantizationErrorBoundedByLsb) {
  Dac dac(8, 1, 2.0);
  const cvec x = random_signal(1000, 0.5, 10);
  const cvec y = dac.process(x);
  const double lsb = 2.0 / 128.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(y[i].real() - x[i].real()), lsb);
    EXPECT_LE(std::abs(y[i].imag() - x[i].imag()), lsb);
  }
}

TEST(Dac, OversamplingMultipliesRate) {
  Dac dac(0, 4);
  const cvec x = random_signal(100, 1.0, 11);
  EXPECT_EQ(dac.process(x).size(), 400u);
}

TEST(IqModDemod, RoundTripRecoversBaseband) {
  // Upconvert a band-limited baseband signal to fc and back.
  const double fs = 80e6;
  const double fc = 20e6;
  ToneSource tone(1e6, fs, 0.7);
  const cvec bb = tone.pull(8000);

  IqModulator mod(Oscillator(fc, fs));
  IqDemodulator demod(Oscillator(fc, fs), 0.12, 127);
  const cvec pass = mod.process(bb);
  for (const cplx& v : pass) EXPECT_EQ(v.imag(), 0.0);  // real passband
  const cvec back = demod.process(pass);

  // Compare in steady state with the 63-sample filter delay.
  const std::size_t d = 63;
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 500; i + d < bb.size(); ++i) {
    err += std::norm(back[i + d] - bb[i]);
    ref += std::norm(bb[i]);
  }
  EXPECT_LT(err / ref, 0.01);
}

TEST(Sinks, PowerMeterAveragesAndPeaks) {
  PowerMeter meter;
  meter.process(cvec{cplx{1.0, 0.0}, cplx{3.0, 0.0}});
  EXPECT_NEAR(meter.average_power(), 5.0, 1e-12);
  EXPECT_NEAR(meter.peak_power(), 9.0, 1e-12);
  EXPECT_NEAR(meter.papr_db(), to_db(9.0 / 5.0), 1e-9);
}

TEST(Sinks, CaptureRespectsLimit) {
  Capture cap(5);
  cap.process(random_signal(10, 1.0, 12));
  EXPECT_EQ(cap.samples().size(), 5u);
}

TEST(Submodel, PullsContinuousStream) {
  Submodel src(core::profile_wlan_80211a(), /*gap=*/100);
  const cvec a = src.pull(1000);
  const cvec b = src.pull(1000);
  EXPECT_EQ(a.size(), 1000u);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_GE(src.frames_generated(), 1u);
  // Chunked pulls equal one big pull from a fresh identical source.
  Submodel src2(core::profile_wlan_80211a(), 100);
  const cvec whole = src2.pull(2000);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(whole[i], a[i]);
    EXPECT_EQ(whole[1000 + i], b[i]);
  }
}

TEST(Submodel, ReconfigurationChangesTheStream) {
  Submodel src(core::profile_wlan_80211a());
  src.pull(100);
  src.configure(core::profile_dab(core::DabMode::kII));
  EXPECT_EQ(src.params().standard, core::Standard::kDab);
  // DAB bursts start with the null symbol: silence.
  const cvec head = src.pull(100);
  for (const cplx& v : head) EXPECT_EQ(std::abs(v), 0.0);
}

TEST(Submodel, ReconfigurationFlushesAllStreamingState) {
  // Mid-stream reconfiguration through three standards: after every
  // configure() the stream must be exactly what a freshly constructed
  // Submodel of that standard emits — no buffered tail from the old
  // standard, no advanced payload PRNG, no stale frame counter.
  Submodel src(core::profile_wlan_80211a(), 64, 17);
  src.pull(777);  // stop mid-frame so there is a tail to flush

  for (const auto& make : {+[] { return core::profile_adsl(); },
                           +[] { return core::profile_drm(); }}) {
    src.configure(make());
    EXPECT_EQ(src.frames_generated(), 0u);
    const cvec got = src.pull(1500);
    Submodel fresh(make(), 64, 17);
    const cvec want = fresh.pull(1500);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "sample " << i << " after switch to "
                                 << core::standard_name(
                                        src.params().standard);
    }
    src.pull(333);  // advance mid-frame again before the next switch
  }
}

TEST(Chain, ComposesBlocksInOrder) {
  Chain chain;
  chain.add<Gain>(6.0);
  chain.add<Gain>(-6.0);
  const cvec x = random_signal(256, 1.0, 13);
  const cvec y = chain.process(x);
  EXPECT_LT(max_abs_error(x, y), 1e-12);
}

TEST(Chain, RunReportsSampleCounts) {
  Submodel src(core::profile_wlan_80211a());
  Chain chain;
  chain.add<Gain>(0.0);
  auto& meter = chain.add<PowerMeter>();
  const RunStats stats = run(src, chain, 10000, 1024);
  EXPECT_EQ(stats.samples_in, 10000u);
  EXPECT_EQ(stats.samples_out, 10000u);
  EXPECT_EQ(meter.samples(), 10000u);
  EXPECT_GE(stats.elapsed_seconds, stats.source_seconds);
}

/// Regression for the samples_out accounting bug: the old code summed
/// every node's buffer once after the loop, reporting only the final
/// chunk and counting interior nodes.
TEST(RunStats, NetlistSamplesOutAccumulatesLeafOutputPerChunk) {
  Netlist net;
  const auto src = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto gain = net.add_block<Gain>(-3.0);
  net.connect(src, gain);
  const auto meter = net.add_block<PowerMeter>();
  net.connect(gain, meter);

  const std::size_t total = 4 * 1024;  // total > chunk
  const RunStats stats = net.run(total, 1024);
  // One leaf (the meter), 1:1 rate: all chunks accumulate, interior
  // nodes (gain) and the source do not count.
  EXPECT_EQ(stats.samples_out, total);
  EXPECT_EQ(stats.samples_in, total);
}

TEST(RunStats, SourceAndBlockSecondsAreAttributed) {
  Submodel src(core::profile_for(core::Standard::kHomePlug), 31, 7);
  Chain chain;
  chain.add<Gain>(-3.0);
  chain.add<MultipathChannel>(exponential_pdp_taps(1.5, 4, 7));
  chain.add<SoftClipPa>(0.9);
  const RunStats s0 = run(src, chain, 8 * 997, 997);
  EXPECT_GT(s0.block_seconds, 0.0);
  EXPECT_GT(s0.source_seconds, 0.0);

  // Summing fan-in of two tones into a gain and a meter.
  Netlist net;
  const auto tone_a = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto tone_b = net.add_source<ToneSource>(3e6, 20e6, 0.25);
  const auto mix = net.add_block<Gain>(0.0);
  net.connect(tone_a, mix);
  net.connect(tone_b, mix);
  const auto meter = net.add_block<PowerMeter>();
  net.connect(mix, meter);
  const RunStats s1 = net.run(8 * 997, 997);
  EXPECT_GT(s1.block_seconds, 0.0);
  EXPECT_GT(s1.source_seconds, 0.0);
}

TEST(RunStats, ZeroTotalIsANoOp) {
  ToneSource src(1e6, 20e6, 0.5);
  Chain chain;
  auto& meter = chain.add<PowerMeter>();
  const RunStats stats = run(src, chain, 0, 997);
  EXPECT_EQ(stats.samples_in, 0u);
  EXPECT_EQ(stats.samples_out, 0u);
  EXPECT_EQ(meter.samples(), 0u);
}

TEST(SpectrumSink, SeesOccupiedBand) {
  Submodel src(core::profile_wlan_80211a());
  Chain chain;
  dsp::WelchConfig cfg;
  cfg.segment = 256;
  cfg.sample_rate = 20e6;
  auto& analyzer = chain.add<SpectrumAnalyzer>(cfg);
  run(src, chain, 1 << 15, 4096);
  const dsp::Psd psd = analyzer.psd();
  // In-band (|f| < 8 MHz) power dominates; the unwindowed 802.11a
  // spectrum keeps sinc shoulders around -25 dBr, so integrated
  // out-of-band power sits near 3% of the total.
  const double inband = psd.band_power(-8e6, 8e6);
  const double outband = psd.total_power() - inband;
  EXPECT_GT(inband, 10.0 * outband);
}

}  // namespace
}  // namespace ofdm::rf
