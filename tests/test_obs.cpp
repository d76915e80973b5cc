// Observability-layer tests: stream hash properties, probe counters on
// deterministic chains, tracer span capture + Chrome JSON export, and
// the report's wall-time attribution.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/profiles.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "obs/stream_hash.hpp"
#include "obs/trace.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace ofdm {
namespace {

TEST(StreamHash, IsDeterministicAndOrderSensitive) {
  const cvec a = {{1.0, 2.0}, {3.0, -4.0}, {0.0, 0.5}};
  const cvec b = {{3.0, -4.0}, {1.0, 2.0}, {0.0, 0.5}};  // permuted
  EXPECT_EQ(obs::hash_samples(a), obs::hash_samples(a));
  EXPECT_NE(obs::hash_samples(a), obs::hash_samples(b));
}

TEST(StreamHash, ChunkingDoesNotChangeTheDigest) {
  cvec data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.1 * static_cast<double>(i)),
               std::cos(0.2 * static_cast<double>(i))};
  }
  obs::StreamHash whole;
  whole.update(data);
  obs::StreamHash chunked;
  const std::span<const cplx> s(data);
  chunked.update(s.subspan(0, 17));
  chunked.update(s.subspan(17, 600));
  chunked.update(s.subspan(617));
  EXPECT_EQ(whole.digest(), chunked.digest());
  EXPECT_EQ(whole.count(), 2 * data.size());
}

TEST(StreamHash, DistinguishesSignZeroAndLength) {
  obs::StreamHash pos, neg, empty, one_zero;
  pos.update(0.0);
  neg.update(-0.0);
  one_zero.update(cplx{0.0, 0.0});
  EXPECT_NE(pos.digest(), neg.digest());
  EXPECT_NE(empty.digest(), pos.digest());
  EXPECT_NE(one_zero.digest(), pos.digest());
  pos.reset();
  EXPECT_EQ(pos.digest(), empty.digest());
}

TEST(Probe, CountersTrackADeterministicChain) {
  rf::ToneSource source(1e6, 20e6, 0.7);
  rf::Chain chain;
  chain.add<rf::Gain>(6.0);
  chain.add<rf::Gain>(-6.0);  // duplicate name -> #2 suffix
  chain.add<rf::SoftClipPa>(0.5);

  obs::ProbeSet probes;
  chain.attach_probes(probes);
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_EQ(probes.at(0).name(), "gain");
  EXPECT_EQ(probes.at(1).name(), "gain#2");
  EXPECT_EQ(probes.at(2).name(), "pa-clip");

  const rf::RunStats stats = rf::run(source, chain, 3 * 4096, 4096);
  EXPECT_EQ(stats.samples_in, 3u * 4096u);
  for (std::size_t b = 0; b < probes.size(); ++b) {
    EXPECT_EQ(probes.at(b).invocations(), 3u) << b;
    EXPECT_EQ(probes.at(b).samples_in(), 3u * 4096u) << b;
    EXPECT_EQ(probes.at(b).samples_out(), 3u * 4096u) << b;
  }
  // Tone amplitude 0.7 through +6 dB ~= 1.4: the first gain clips (with
  // the default threshold of 1.0), the second one restores ~0.7.
  EXPECT_GT(probes.at(0).clip_events(), 0u);
  EXPECT_NEAR(probes.at(0).peak_magnitude(), 1.4, 0.01);
  EXPECT_EQ(probes.at(1).clip_events(), 0u);
  // The soft clipper pins |s| at 0.5.
  EXPECT_LE(probes.at(2).peak_magnitude(), 0.5 + 1e-9);

  chain.detach_probes();
  rf::run(source, chain, 4096);  // no further counting
  EXPECT_EQ(probes.at(0).invocations(), 3u);
}

TEST(Probe, SourceProbeCountsPulledSamples) {
  rf::ToneSource source(1e6, 20e6, 0.5);
  obs::ProbeSet probes;
  source.set_probe(&probes.add(source.name()));
  rf::Chain chain;
  chain.add<rf::Gain>(0.0);
  rf::run(source, chain, 2 * 1024, 1024);
  ASSERT_NE(probes.find("tone"), nullptr);
  EXPECT_EQ(probes.find("tone")->samples_out(), 2048u);
  EXPECT_EQ(probes.find("tone")->samples_in(), 0u);
  source.set_probe(nullptr);
}

TEST(Probe, NetlistAttachCoversSourcesAndBlocks) {
  rf::Netlist net;
  const auto a = net.add_source<rf::ToneSource>(1e6, 20e6, 0.5);
  const auto b = net.add_source<rf::ToneSource>(2e6, 20e6, 0.25);
  const auto sum = net.add_block<rf::Gain>(0.0);
  const auto meter = net.add_block<rf::PowerMeter>();
  net.connect(a, sum);
  net.connect(b, sum);
  net.connect(sum, meter);

  obs::ProbeSet probes;
  net.attach_probes(probes);
  ASSERT_EQ(probes.size(), 4u);
  net.run(4 * 1024, 1024);
  // Summing fan-in: the gain node sees one merged stream.
  EXPECT_EQ(probes.at(2).samples_in(), 4u * 1024u);
  EXPECT_EQ(probes.at(2).samples_out(), 4u * 1024u);
  EXPECT_EQ(probes.at(3).samples_in(), probes.at(2).samples_out());
  net.detach_probes();
}

TEST(Tracer, CapturesSpansAndExportsChromeJson) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1 << 12);

  rf::ToneSource source(1e6, 20e6, 0.5);
  rf::Chain chain;
  chain.add<rf::Gain>(-3.0);
  chain.add<rf::AwgnChannel>(1e-4);
  rf::run(source, chain, 4 * 1024, 1024);
  tracer.disable();

  const auto events = tracer.snapshot();
  // 4 chunks x (1 source + 2 blocks) spans.
  ASSERT_GE(events.size(), 12u);
  std::size_t tone = 0, gain = 0, awgn = 0;
  for (const auto& e : events) {
    ASSERT_NE(e.name, nullptr);
    const std::string name(e.name);
    tone += name == "tone";
    gain += name == "gain";
    awgn += name == "awgn";
  }
  EXPECT_EQ(tone, 4u);
  EXPECT_EQ(gain, 4u);
  EXPECT_EQ(awgn, 4u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gain\""), std::string::npos);
  tracer.clear();
}

TEST(Tracer, SpanNamesOutliveTheirBlock) {
  // A traced campaign builds and drops one chain per trial, and exports
  // the trace afterwards: span names must not point into dead blocks.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1 << 12);
  {
    rf::ToneSource source(1e6, 20e6, 0.5);
    rf::Chain chain;
    chain.add<rf::Gain>(-3.0);
    chain.add<rf::AwgnChannel>(1e-4);
    rf::run(source, chain, 2 * 1024, 1024);
  }
  tracer.disable();
  // Reuse the freed blocks' memory before the names are read.
  std::vector<std::string> scribble;
  for (std::size_t n = 8; n <= 512; n += 8) {
    for (int k = 0; k < 4; ++k) scribble.emplace_back(n, '#');
  }

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 6u);
  std::size_t tone = 0, gain = 0, awgn = 0;
  for (const auto& e : events) {
    ASSERT_NE(e.name, nullptr);
    const std::string name(e.name);
    tone += name == "tone";
    gain += name == "gain";
    awgn += name == "awgn";
  }
  EXPECT_EQ(tone, 2u);
  EXPECT_EQ(gain, 2u);
  EXPECT_EQ(awgn, 2u);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  for (const char* name : {"tone", "gain", "awgn"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(json.find('#'), std::string::npos);
  // Equal names share one interned copy.
  EXPECT_EQ(obs::intern("gain"), obs::intern(std::string("ga") + "in"));
  tracer.clear();
}

TEST(Tracer, RingOverwritesOldestSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(8);
  for (int i = 0; i < 20; ++i) tracer.record("span", 100 + i, 1);
  tracer.disable();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(tracer.recorded(), 20u);
  // Oldest surviving span is number 12 (0-based), in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, 112 + i);
  }
  tracer.clear();
}

TEST(Tracer, TransmitterEmitsOneModulateSpan) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(1 << 12);
  core::Transmitter tx(core::profile_for(core::Standard::kDab));
  Rng rng(3);
  tx.modulate(rng.bits(1000));
  tracer.disable();
  std::size_t modulate = 0;
  for (const auto& e : tracer.snapshot()) {
    const std::string name(e.name ? e.name : "");
    modulate += name == "Transmitter::modulate";
  }
  EXPECT_EQ(modulate, 1u);
  tracer.clear();
}

TEST(Report, AttributesWallTimeToNamedBlocks) {
  rf::Submodel source(core::profile_for(core::Standard::kWlan80211a), 16,
                      11);
  rf::Chain chain;
  chain.add<rf::Gain>(-3.0);
  chain.add<rf::IqImbalance>(0.4, 2.0);
  chain.add<rf::RappPa>(2.0, 1.0);
  chain.add<rf::MultipathChannel>(rf::exponential_pdp_taps(2.0, 8, 5));
  chain.add<rf::AwgnChannel>(1e-4);

  obs::ProbeSet probes;
  chain.attach_probes(probes);
  source.set_probe(&probes.add(source.name()));
  const rf::RunStats stats = rf::run(source, chain, 64 * 1024, 4096);

  const obs::Report report =
      obs::Report::from(probes, stats.elapsed_seconds);
  ASSERT_EQ(report.rows.size(), 6u);
  // The run loop is a thin shell around observed calls: nearly all wall
  // time lands on named blocks (probe scan time is attributed as
  // observer cost, so only the driver loop itself is unaccounted).
  EXPECT_GE(report.attributed_fraction(), 0.95)
      << report.table();
  EXPECT_LE(report.attributed_fraction(), 1.05);

  const std::string table = report.table();
  EXPECT_NE(table.find("pa-rapp"), std::string::npos);
  EXPECT_NE(table.find("attributed"), std::string::npos);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"multipath"), std::string::npos);
  source.set_probe(nullptr);
}

TEST(Report, HashColumnsCarryGoldenDigests) {
  rf::ToneSource source(1e6, 20e6, 0.5);
  rf::Chain chain;
  chain.add<rf::Gain>(0.0);
  obs::ProbeSet probes({.hash_output = true});
  chain.attach_probes(probes);
  const rf::RunStats stats = rf::run(source, chain, 2048, 1024);
  const obs::Report report =
      obs::Report::from(probes, stats.elapsed_seconds);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_NE(report.rows[0].output_hash, 0u);
  EXPECT_EQ(report.rows[0].output_hash, probes.at(0).output_hash());
}

}  // namespace
}  // namespace ofdm
