// Fault-injection block tests: the injected faults must be exactly as
// deterministic, countable, and chunking-invariant as the containment
// machinery they exercise assumes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "obs/stream_hash.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/submodel.hpp"
#include "support/fault.hpp"

namespace ofdm::rf {
namespace {

cvec gaussian_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec v(n);
  for (cplx& s : v) s = rng.complex_gaussian(1.0);
  return v;
}

TEST(FlakyBlock, InjectsTheConfiguredFaultDeterministically) {
  const cvec input = gaussian_input(256, 1);
  for (const auto fault : {FlakyBlock::Fault::kNaN, FlakyBlock::Fault::kInf,
                           FlakyBlock::Fault::kHuge}) {
    FlakyBlock flaky(std::make_unique<Gain>(0.0), 3, fault);
    EXPECT_EQ(flaky.name(), "flaky[gain]");
    cvec out;
    std::uint64_t first_offset = 0;
    for (int chunk = 0; chunk < 6; ++chunk) {
      flaky.process(input, out);
      ASSERT_EQ(out.size(), input.size());
      if (chunk == 2) first_offset = flaky.last_fault_offset();
    }
    EXPECT_EQ(flaky.faults_injected(), 2u);
    // The fault position is seeded, not random: a reset replays it.
    flaky.reset();
    for (int chunk = 0; chunk < 3; ++chunk) flaky.process(input, out);
    EXPECT_EQ(flaky.faults_injected(), 1u);
    EXPECT_EQ(flaky.last_fault_offset(), first_offset);
    // And the corrupted sample matches the configured kind.
    const std::size_t idx =
        static_cast<std::size_t>(first_offset % input.size());
    switch (fault) {
      case FlakyBlock::Fault::kNaN:
        EXPECT_TRUE(std::isnan(out[idx].real()));
        break;
      case FlakyBlock::Fault::kInf:
        EXPECT_TRUE(std::isinf(out[idx].real()));
        break;
      case FlakyBlock::Fault::kHuge:
        EXPECT_TRUE(std::isfinite(out[idx].real()));
        EXPECT_GT(std::abs(out[idx].real()), 1e29);
        break;
    }
  }
}

TEST(FlakyBlock, ZeroPeriodNeverFires) {
  const cvec input = gaussian_input(128, 2);
  FlakyBlock flaky(std::make_unique<Gain>(-3.0), 0);
  cvec out;
  for (int chunk = 0; chunk < 10; ++chunk) flaky.process(input, out);
  EXPECT_EQ(flaky.faults_injected(), 0u);
  // And the wrapper is transparent: output == inner block alone.
  Gain bare(-3.0);
  cvec expected;
  bare.process(input, expected);
  EXPECT_EQ(obs::hash_samples(out), obs::hash_samples(expected));
}

TEST(BurstNoise, BurstPositionsAreChunkingInvariant) {
  const cvec input = gaussian_input(3000, 3);
  BurstNoise one_shot(500, 20, 4.0);
  cvec full;
  one_shot.process(input, full);
  EXPECT_EQ(one_shot.bursts(), 6u);

  BurstNoise chunked(500, 20, 4.0);
  cvec out;
  cvec stitched;
  // Ragged chunk sizes: 7, 14, 21, ... — none divides the burst period.
  std::size_t pos = 0;
  std::size_t step = 7;
  while (pos < input.size()) {
    const std::size_t n = std::min(step, input.size() - pos);
    chunked.process(std::span<const cplx>(input.data() + pos, n), out);
    stitched.insert(stitched.end(), out.begin(), out.end());
    pos += n;
    step += 7;
  }
  EXPECT_EQ(chunked.bursts(), one_shot.bursts());
  EXPECT_EQ(obs::hash_samples(stitched), obs::hash_samples(full));
}

TEST(BurstNoise, OnlyBurstWindowsAreTouched) {
  const cvec input = gaussian_input(1000, 4);
  BurstNoise noise(250, 10, 9.0);
  cvec out;
  noise.process(input, out);
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (i % 250 < 10) continue;  // inside a burst
    EXPECT_EQ(out[i], input[i]) << "sample " << i;
  }
}

TEST(SampleDropper, DropModeShortensTheStream) {
  const cvec input = gaussian_input(100, 5);
  SampleDropper dropper(10);
  cvec out;
  dropper.process(input, out);
  EXPECT_EQ(out.size(), 90u);
  EXPECT_EQ(dropper.dropped(), 10u);
  // Counting is positional across chunks: 5 more samples drop on the
  // next call of the same length.
  dropper.process(input, out);
  EXPECT_EQ(dropper.dropped(), 20u);
}

TEST(SampleDropper, ZeroFillPreservesRateAndSilencesDrops) {
  const cvec input = gaussian_input(100, 6);
  SampleDropper dropper(10, /*zero_fill=*/true);
  cvec out;
  dropper.process(input, out);
  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(dropper.dropped(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if ((i + 1) % 10 == 0) {
      EXPECT_EQ(out[i], (cplx{0.0, 0.0}));
    } else {
      EXPECT_EQ(out[i], input[i]);
    }
  }
}

TEST(SampleDropper, FanInRejectsTheRateMismatch) {
  // A lossy branch summed with a healthy one must be rejected by the
  // netlist's fan-in length check, not silently misaligned.
  Netlist net;
  const auto src = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto lossy = net.add_block<SampleDropper>(16);
  const auto sum = net.add_block<Gain>(0.0);
  net.connect(src, lossy);
  net.connect(src, sum);
  net.connect(lossy, sum);
  EXPECT_THROW(net.run(4096), DimensionError);
}

TEST(StallingSource, StallsWithoutTouchingTheStream) {
  using namespace std::chrono;
  StallingSource stalling(std::make_unique<ToneSource>(1e6, 20e6, 0.7), 4,
                          microseconds(200));
  EXPECT_EQ(stalling.name(), "stalling[tone]");
  ToneSource bare(1e6, 20e6, 0.7);
  obs::StreamHash a;
  obs::StreamHash b;
  cvec out;
  const auto t0 = steady_clock::now();
  for (int pull = 0; pull < 8; ++pull) {
    stalling.pull(512, out);
    a.update(out);
    bare.pull(512, out);
    b.update(out);
  }
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_EQ(stalling.stalls(), 2u);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_GE(elapsed, microseconds(400));
}

TEST(FaultState, FaultBlocksResumeBitIdentically) {
  const cvec input = gaussian_input(512, 7);
  // Run half the stream, checkpoint, restore into a fresh instance, and
  // require the second half (including fault schedule) to match.
  BurstNoise full(300, 30, 2.0);
  BurstNoise head(300, 30, 2.0);
  cvec expected;
  cvec got;
  full.process(input, expected);
  full.process(input, expected);
  head.process(input, got);

  StateWriter w;
  head.save_state(w);
  BurstNoise resumed(300, 30, 2.0);
  StateReader r(w.bytes());
  resumed.load_state(r);
  EXPECT_TRUE(r.done());
  resumed.process(input, got);
  EXPECT_EQ(obs::hash_samples(got), obs::hash_samples(expected));
  EXPECT_EQ(resumed.bursts(), full.bursts());
}

TEST(FaultState, FlakyBlockSnapshotsItsScheduleAndInner) {
  const cvec input = gaussian_input(256, 8);
  FlakyBlock a(std::make_unique<Gain>(-2.0), 3, FlakyBlock::Fault::kNaN);
  cvec out;
  a.process(input, out);
  a.process(input, out);

  StateWriter w;
  a.save_state(w);
  FlakyBlock b(std::make_unique<Gain>(-2.0), 3, FlakyBlock::Fault::kNaN);
  StateReader r(w.bytes());
  b.load_state(r);

  cvec out_a;
  cvec out_b;
  a.process(input, out_a);  // third chunk: both must fire identically
  b.process(input, out_b);
  EXPECT_EQ(a.faults_injected(), 1u);
  EXPECT_EQ(b.faults_injected(), 1u);
  EXPECT_EQ(a.last_fault_offset(), b.last_fault_offset());
}

}  // namespace
}  // namespace ofdm::rf
