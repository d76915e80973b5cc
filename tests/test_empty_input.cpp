// Edge-case net for the streaming datapath: every block — and the
// Chain/Netlist drivers around them — must accept a zero-length input
// span and a single sample, and chunking a leading empty call must not
// disturb the stream (no state advances on nothing).
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "dsp/fir.hpp"
#include "dsp/resample.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/watterson.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/papr_reduction.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"

namespace ofdm::rf {
namespace {

/// Every block the RF library exposes, fresh per call.
std::vector<std::unique_ptr<Block>> all_blocks() {
  std::vector<std::unique_ptr<Block>> blocks;
  blocks.push_back(std::make_unique<Gain>(-3.0));
  blocks.push_back(std::make_unique<IqImbalance>(0.4, 2.0));
  blocks.push_back(std::make_unique<DcOffset>(cplx{0.01, -0.02}));
  blocks.push_back(std::make_unique<PhaseNoise>(50.0, 20e6));
  blocks.push_back(std::make_unique<RappPa>(2.0, 1.0));
  blocks.push_back(std::make_unique<SalehPa>(2.0, 1.0, 1.0, 1.0));
  blocks.push_back(std::make_unique<SoftClipPa>(0.9));
  blocks.push_back(
      std::make_unique<MultipathChannel>(exponential_pdp_taps(2.0, 8, 1)));
  blocks.push_back(std::make_unique<AwgnChannel>(1e-4));
  blocks.push_back(std::make_unique<channels::WattersonChannel>(
      std::vector<channels::WattersonPath>{{0, 1.0}, {3, 0.3}},
      channels::DopplerSpectrum::kJakes, 50.0, 1e6, 9, 16));
  blocks.push_back(std::make_unique<ImpulseNoise>(0.01, 4.0, 1.0));
  blocks.push_back(std::make_unique<Dac>(10, 4));
  blocks.push_back(std::make_unique<FrequencyShift>(1e6, 20e6));
  blocks.push_back(std::make_unique<DecimatorBlock>(4));
  blocks.push_back(std::make_unique<ClipAndFilter>(6.0, 0.2, 1, 31));
  blocks.push_back(std::make_unique<PowerMeter>());
  blocks.push_back(std::make_unique<Capture>(1024));
  return blocks;
}

TEST(EmptyInput, EveryBlockAcceptsAnEmptySpan) {
  for (auto& block : all_blocks()) {
    cvec out{cplx{9.0, 9.0}};  // pre-filled: must come back empty
    ASSERT_NO_THROW(block->process({}, out)) << block->name();
    EXPECT_TRUE(out.empty()) << block->name();
  }
}

TEST(EmptyInput, EveryBlockAcceptsASingleSample) {
  for (auto& block : all_blocks()) {
    const cvec in{cplx{0.3, -0.4}};
    cvec out;
    ASSERT_NO_THROW(block->process(in, out)) << block->name();
    // 1:1 blocks produce one sample; rate changers may produce 0 or
    // factor-many, but never garbage sizes.
    EXPECT_LE(out.size(), 8u) << block->name();
  }
}

TEST(EmptyInput, EmptyCallDoesNotAdvanceStreamingState) {
  // For stateful blocks an interleaved empty chunk must be invisible:
  // process(x) == process({}) then process(x).
  const cvec in = {cplx{0.5, 0.1}, cplx{-0.2, 0.3}, cplx{0.7, -0.7},
                   cplx{0.0, 0.4}};
  auto plain = all_blocks();
  auto gapped = all_blocks();
  for (std::size_t b = 0; b < plain.size(); ++b) {
    cvec out_plain, out_gapped, empty_out;
    plain[b]->process(in, out_plain);
    gapped[b]->process({}, empty_out);
    gapped[b]->process(in, out_gapped);
    ASSERT_EQ(out_plain.size(), out_gapped.size()) << plain[b]->name();
    for (std::size_t i = 0; i < out_plain.size(); ++i) {
      EXPECT_EQ(out_plain[i], out_gapped[i])
          << plain[b]->name() << " sample " << i;
    }
  }
}

TEST(EmptyInput, RateChangersHandleEmptyAndSingleSamples) {
  dsp::Interpolator interp(4);
  dsp::Decimator dec(4);
  dsp::FirFilter fir(dsp::design_lowpass(0.2, 31));
  cvec out;

  interp.process({}, out);
  EXPECT_TRUE(out.empty());
  dec.process({}, out);
  EXPECT_TRUE(out.empty());
  cvec fir_out;
  fir.process({}, fir_out);
  EXPECT_TRUE(fir_out.empty());

  const cvec one{cplx{1.0, 0.0}};
  interp.process(one, out);
  EXPECT_EQ(out.size(), 4u);
  dec.reset();
  // Feeding one sample at a time: 4 singles produce exactly 1 output.
  std::size_t produced = 0;
  for (int i = 0; i < 4; ++i) {
    dec.process(one, out);
    produced += out.size();
  }
  EXPECT_EQ(produced, 1u);
}

TEST(EmptyInput, ChainPropagatesEmptyThroughRateChangers) {
  Chain chain;
  chain.add<Dac>(10, 4);
  chain.add<FrequencyShift>(2e6, 80e6);
  chain.add<DecimatorBlock>(4);
  cvec out;
  ASSERT_NO_THROW(chain.process({}, out));
  EXPECT_TRUE(out.empty());

  // And an empty chain passes the empty span through.
  Chain empty_chain;
  ASSERT_NO_THROW(empty_chain.process({}, out));
  EXPECT_TRUE(out.empty());
}

TEST(EmptyInput, RunWithZeroTotalIsANoOp) {
  ToneSource source(1e6, 20e6, 0.5);
  Chain chain;
  chain.add<Gain>(0.0);
  const RunStats stats = run(source, chain, 0);
  EXPECT_EQ(stats.samples_in, 0u);
  EXPECT_EQ(stats.samples_out, 0u);
}

TEST(EmptyInput, ZeroChunkIsRejectedNotAnInfiniteLoop) {
  ToneSource source(1e6, 20e6, 0.5);
  Chain chain;
  chain.add<Gain>(0.0);
  EXPECT_THROW(run(source, chain, 1024, 0), ConfigError);

  Netlist net;
  const auto src = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto g = net.add_block<Gain>(0.0);
  net.connect(src, g);
  EXPECT_THROW(net.run(1024, 0), ConfigError);
  EXPECT_NO_THROW(net.run(0, 0));  // nothing requested, nothing looped
}

TEST(EmptyInput, NetlistZeroTotalIsANoOp) {
  Netlist net;
  const auto src = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto g = net.add_block<Gain>(0.0);
  net.connect(src, g);
  const RunStats stats = net.run(0);
  EXPECT_EQ(stats.samples_in, 0u);
}

TEST(EmptyInput, ClipAndFilterEmptyBurstIsStable) {
  ClipAndFilter caf(6.0, 0.2, 2, 31);
  cvec out;
  ASSERT_NO_THROW(caf.process({}, out));
  EXPECT_TRUE(out.empty());
  // All-zero burst: average power 0 -> pass-through, not NaN.
  const cvec zeros(64, cplx{0.0, 0.0});
  caf.process(zeros, out);
  ASSERT_EQ(out.size(), zeros.size());
  for (const cplx& v : out) {
    EXPECT_EQ(v, (cplx{0.0, 0.0}));
  }
}

}  // namespace
}  // namespace ofdm::rf
