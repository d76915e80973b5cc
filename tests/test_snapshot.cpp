// Checkpoint/restore tests: the serialization primitives, per-block
// state round-trips, and whole-graph snapshot-resume bit-identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "core/profiles.hpp"
#include "obs/stream_hash.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/cfo.hpp"
#include "rf/channels/rician.hpp"
#include "rf/channels/tdl.hpp"
#include "rf/channels/watterson.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace ofdm {
namespace {

TEST(StateSerial, PrimitivesRoundTrip) {
  StateWriter w;
  w.u8(0xAB);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-0.0);
  w.f64(3.14159);
  w.str("submodel[802.11a]");
  const cvec cv{{1.5, -2.5}, {0.0, 1e-300}};
  const rvec rv{0.25, -0.5, 4096.0};
  w.vec_c(cv);
  w.vec_r(rv);

  StateReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  // -0.0 must survive by bit pattern, not value comparison.
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "submodel[802.11a]");
  cvec cv2;
  rvec rv2;
  r.vec_c(cv2);
  r.vec_r(rv2);
  EXPECT_EQ(cv2, cv);
  EXPECT_EQ(rv2, rv);
  EXPECT_TRUE(r.done());
}

TEST(StateSerial, TruncatedBufferThrows) {
  StateWriter w;
  w.u64(42);
  w.str("hello");
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.resize(bytes.size() - 3);
  StateReader r(bytes);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_THROW(r.str(), StateError);
}

TEST(StateSerial, NodeFramingCatchesNameMismatch) {
  StateWriter w;
  w.begin_node("awgn");
  w.f64(1.0);
  w.end_node();
  StateReader r(w.bytes());
  EXPECT_THROW(r.enter_node("fading"), StateError);
}

TEST(StateSerial, NodeFramingCatchesUnderconsumedFrame) {
  StateWriter w;
  w.begin_node("awgn");
  w.f64(1.0);
  w.f64(2.0);
  w.end_node();
  StateReader r(w.bytes());
  r.enter_node("awgn");
  r.f64();  // leave one value unread
  EXPECT_THROW(r.exit_node(), StateError);
}

TEST(StateSerial, RngResumesIdenticalStream) {
  Rng a(12345);
  // Advance through both generators, leaving a cached Box-Muller value
  // pending so the gaussian cache is part of the round trip.
  for (int i = 0; i < 7; ++i) a.gaussian();
  for (int i = 0; i < 3; ++i) a.uniform();
  StateWriter w;
  a.save(w);
  Rng b(999);  // deliberately different seed; load must overwrite all
  StateReader r(w.bytes());
  b.load(r);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.gaussian(), b.gaussian());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

/// Save/load a single block mid-stream and require the continuation to
/// be bit-identical to the uninterrupted run.
template <typename MakeBlock>
void expect_block_resumes(MakeBlock make) {
  Rng rng(4242);
  cvec input(2048);
  for (cplx& v : input) v = rng.complex_gaussian(1.0);
  const std::span<const cplx> first(input.data(), 1024);
  const std::span<const cplx> second(input.data() + 1024, 1024);

  auto full = make();
  cvec out_a;
  cvec out_b;
  full->process(first, out_a);

  StateWriter w;
  full->save_state(w);
  auto resumed = make();
  StateReader r(w.bytes());
  resumed->load_state(r);
  EXPECT_TRUE(r.done());

  full->process(second, out_a);
  resumed->process(second, out_b);
  ASSERT_EQ(out_a.size(), out_b.size());
  EXPECT_EQ(obs::hash_samples(out_a), obs::hash_samples(out_b));
}

TEST(BlockState, StatefulBlocksResumeBitIdentically) {
  using std::make_unique;
  expect_block_resumes(
      [] { return make_unique<rf::AwgnChannel>(1e-2, 7); });
  expect_block_resumes([] {
    return make_unique<rf::MultipathChannel>(
        rf::exponential_pdp_taps(2.0, 6, 11));
  });
  expect_block_resumes([] {
    return make_unique<rf::channels::WattersonChannel>(
        std::vector<rf::channels::WattersonPath>{{0, 1.0}, {3, 0.5}},
        rf::channels::DopplerSpectrum::kJakes, 50.0, 1e6, 21, 16);
  });
  expect_block_resumes(
      [] { return make_unique<rf::ImpulseNoise>(1e-3, 8.0, 4.0, 31); });
  expect_block_resumes(
      [] { return make_unique<rf::PhaseNoise>(100.0, 1e6, 41); });
  expect_block_resumes(
      [] { return make_unique<rf::FrequencyShift>(1.3e4, 1e6); });
  expect_block_resumes([] { return make_unique<rf::Dac>(10, 4); });
  expect_block_resumes([] {
    return make_unique<rf::IqModulator>(rf::Oscillator(1e5, 1e6, 0.0,
                                                       50.0, 51));
  });
  expect_block_resumes([] {
    return make_unique<rf::IqDemodulator>(
        rf::Oscillator(1e5, 1e6, 0.0, 0.0, 61), 0.2, 63);
  });
  expect_block_resumes([] { return make_unique<rf::DecimatorBlock>(4); });
}

TEST(BlockState, ChannelLibraryResumesBitIdentically) {
  using rf::channels::CcirCondition;
  // Watterson with a high spread so the gains move measurably within
  // the 2048-sample window (snapshot lands mid-fade, not on a plateau).
  expect_block_resumes([] {
    return rf::channels::make_watterson(CcirCondition::kFlutter, 48e3,
                                        91);
  });
  expect_block_resumes([] {
    return std::make_unique<rf::channels::RicianChannel>(10.0, 500.0,
                                                         1e6, 92);
  });
  expect_block_resumes([] {
    return rf::channels::make_tdl_channel(
        rf::channels::tdl_profile("sui_3"), 20e6, 93);
  });
  expect_block_resumes([] {
    return std::make_unique<rf::channels::OscillatorDrift>(200.0, 100.0,
                                                           1e6);
  });
}

TEST(BlockState, WattersonRejectsWrongPathCount) {
  auto two = rf::channels::make_watterson(
      rf::channels::CcirCondition::kPoor, 48e3, 5);
  StateWriter w;
  two->save_state(w);
  rf::channels::WattersonChannel one(
      {{0, 1.0}}, rf::channels::DopplerSpectrum::kGaussian, 1.0, 48e3, 5);
  StateReader r(w.bytes());
  EXPECT_THROW(one.load_state(r), StateError);
}

TEST(BlockState, MultipathRejectsWrongTapCount) {
  rf::MultipathChannel a(rf::exponential_pdp_taps(2.0, 6, 11));
  StateWriter w;
  a.save_state(w);
  rf::MultipathChannel b(rf::exponential_pdp_taps(2.0, 9, 11));
  StateReader r(w.bytes());
  EXPECT_THROW(b.load_state(r), StateError);
}

TEST(BlockState, SubmodelRejectsWrongStandard) {
  rf::Submodel a(core::profile_wlan_80211a(), 16, 5);
  cvec sink;
  a.pull(4096, sink);
  StateWriter w;
  a.save_state(w);
  rf::Submodel b(core::profile_dab(), 16, 5);
  StateReader r(w.bytes());
  EXPECT_THROW(b.load_state(r), StateError);
}

TEST(ChainState, MidStreamChainResumesBitIdentically) {
  auto build = [] {
    auto chain = std::make_unique<rf::Chain>();
    chain->add<rf::Gain>(-2.0);
    chain->add<rf::MultipathChannel>(rf::exponential_pdp_taps(1.5, 5, 3));
    chain->add<rf::PhaseNoise>(80.0, 1e6, 17);
    chain->add<rf::AwgnChannel>(1e-3, 23);
    return chain;
  };
  expect_block_resumes(build);
}

TEST(ChainState, LoadRejectsDifferentlyComposedChain) {
  rf::Chain a;
  a.add<rf::Gain>(-2.0);
  a.add<rf::AwgnChannel>(1e-3);
  StateWriter w;
  a.save_state(w);

  rf::Chain different_order;
  different_order.add<rf::AwgnChannel>(1e-3);
  different_order.add<rf::Gain>(-2.0);
  {
    StateReader r(w.bytes());
    EXPECT_THROW(different_order.load_state(r), StateError);
  }

  rf::Chain different_size;
  different_size.add<rf::Gain>(-2.0);
  {
    StateReader r(w.bytes());
    EXPECT_THROW(different_size.load_state(r), StateError);
  }
}

namespace {

/// A tone -> IF shift -> PA -> capture netlist used by the snapshot
/// tests; deterministic and stateful on every node.
rf::Netlist build_netlist(rf::Netlist::NodeId* capture_id) {
  rf::Netlist net;
  const auto tone = net.add_source<rf::ToneSource>(1.1e6, 20e6, 0.8);
  const auto shift = net.add_block<rf::FrequencyShift>(2e6, 20e6);
  const auto pa = net.add_block<rf::SoftClipPa>(0.75);
  const auto cap = net.add_block<rf::Capture>();
  net.connect(tone, shift);
  net.connect(shift, pa);
  net.connect(pa, cap);
  if (capture_id != nullptr) *capture_id = cap;
  return net;
}

}  // namespace

TEST(NetlistState, SnapshotResumeMatchesUninterruptedRun) {
  rf::Netlist::NodeId cap_a;
  rf::Netlist net = build_netlist(&cap_a);
  net.run(4096, 1000);  // chunk does not divide the total
  const std::vector<std::uint8_t> snap = net.snapshot();

  net.run(4096, 1000);
  const std::uint64_t uninterrupted =
      obs::hash_samples(net.node<rf::Capture>(cap_a).samples());

  rf::Netlist::NodeId cap_b;
  rf::Netlist resumed = build_netlist(&cap_b);
  resumed.restore(snap);
  resumed.run(4096, 1000);
  EXPECT_EQ(obs::hash_samples(resumed.node<rf::Capture>(cap_b).samples()),
            uninterrupted);
}

TEST(NetlistState, RestoreRejectsForeignBytes) {
  rf::Netlist net = build_netlist(nullptr);
  // Not a snapshot at all.
  const std::vector<std::uint8_t> garbage(64, 0x5A);
  EXPECT_THROW(net.restore(garbage), StateError);
  // A valid snapshot of a different graph.
  rf::Netlist other;
  other.add_source<rf::ToneSource>(1e6, 20e6, 0.5);
  const std::vector<std::uint8_t> foreign = other.snapshot();
  EXPECT_THROW(net.restore(foreign), StateError);
}

TEST(NetlistState, SubmodelGraphResumesAcrossFrameBoundary) {
  // The Submodel's buffered frame tail is the subtle part of its state:
  // interrupt mid-frame and the resumed graph must finish that frame
  // from the buffer, not regenerate it.
  auto build = [] {
    rf::Netlist net;
    const auto src =
        net.add_source<rf::Submodel>(core::profile_adsl(), 27, 9);
    const auto meter = net.add_block<rf::PowerMeter>();
    const auto cap = net.add_block<rf::Capture>();
    net.connect(src, meter);
    net.connect(meter, cap);
    return net;
  };
  rf::Netlist first = build();
  first.run(3000, 500);
  const std::vector<std::uint8_t> snap = first.snapshot();
  first.run(3000, 500);
  const std::uint64_t golden = obs::hash_samples(
      first.node<rf::Capture>(rf::Netlist::NodeId{2}).samples());

  rf::Netlist resumed = build();
  resumed.restore(snap);
  resumed.run(3000, 500);
  EXPECT_EQ(obs::hash_samples(
                resumed.node<rf::Capture>(rf::Netlist::NodeId{2}).samples()),
            golden);
}

}  // namespace
}  // namespace ofdm
