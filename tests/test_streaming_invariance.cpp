// Cross-cutting property: every stateful RF block must produce the same
// output whether a signal is processed in one call or in arbitrary
// chunks — the invariant the chunked simulation loop (rf::run,
// rf::Netlist) rests on. A block that hides state in per-call locals
// breaks here immediately.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "rf/block.hpp"
#include "rf/channel.hpp"
#include "rf/channels/cfo.hpp"
#include "rf/channels/rician.hpp"
#include "rf/channels/tdl.hpp"
#include "rf/channels/watterson.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"

namespace ofdm::rf {
namespace {

using BlockFactory = std::function<std::unique_ptr<Block>()>;

struct Case {
  const char* name;
  BlockFactory make;
};

std::vector<Case> stateful_blocks() {
  return {
      {"gain", [] { return std::make_unique<Gain>(3.0); }},
      {"rapp-pa", [] { return std::make_unique<RappPa>(2.0, 1.0); }},
      {"saleh-pa", [] { return std::make_unique<SalehPa>(); }},
      {"awgn", [] { return std::make_unique<AwgnChannel>(0.1, 42); }},
      {"multipath",
       [] {
         return std::make_unique<MultipathChannel>(
             cvec{cplx{0.8, 0.1}, cplx{0.2, -0.3}, cplx{0.05, 0.0}});
       }},
      {"fading",
       [] {
         return std::make_unique<channels::WattersonChannel>(
             std::vector<channels::WattersonPath>{{0, 0.8}, {3, 0.2}},
             channels::DopplerSpectrum::kJakes, 200.0, 1e6, 9, 16);
       }},
      {"impulse-noise",
       [] { return std::make_unique<ImpulseNoise>(1e-3, 10.0, 25.0, 7); }},
      {"freq-shift",
       [] { return std::make_unique<FrequencyShift>(1.7e3, 1e6); }},
      {"iq-imbalance",
       [] { return std::make_unique<IqImbalance>(0.5, 3.0); }},
      {"dc-offset",
       [] { return std::make_unique<DcOffset>(cplx{0.1, -0.05}); }},
      {"phase-noise",
       [] { return std::make_unique<PhaseNoise>(500.0, 1e6, 5); }},
      {"iq-modulator",
       [] { return std::make_unique<IqModulator>(Oscillator(2e5, 1e6)); }},
      {"dac-x2", [] { return std::make_unique<Dac>(10, 2); }},
      {"watterson",
       [] { return channels::make_watterson(channels::CcirCondition::kPoor,
                                            48e3, 21); }},
      {"rician",
       [] { return std::make_unique<channels::RicianChannel>(5.0, 300.0,
                                                             1e6, 22); }},
      {"tdl-itu-veh-a",
       [] {
         return channels::make_tdl_channel(
             channels::tdl_profile("itu_veh_a"), 20e6, 23);
       }},
      {"osc-drift",
       [] {
         return std::make_unique<channels::OscillatorDrift>(200.0, 100.0,
                                                            1e6);
       }},
  };
}

class ChunkingInvariance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkingInvariance, ChunkedEqualsWhole) {
  const std::size_t chunk = GetParam();
  Rng rng(1000 + chunk);
  cvec x(3000);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);

  for (const Case& c : stateful_blocks()) {
    auto whole_block = c.make();
    const cvec whole = whole_block->process(x);

    auto chunked_block = c.make();
    cvec pieced;
    for (std::size_t off = 0; off < x.size(); off += chunk) {
      const std::size_t n = std::min(chunk, x.size() - off);
      const cvec part = chunked_block->process(
          std::span<const cplx>(x).subspan(off, n));
      pieced.insert(pieced.end(), part.begin(), part.end());
    }
    ASSERT_EQ(pieced.size(), whole.size()) << c.name;
    EXPECT_LT(max_abs_error(whole, pieced), 1e-12)
        << c.name << " with chunk " << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkingInvariance,
                         ::testing::Values<std::size_t>(1, 7, 64, 333,
                                                        1024, 3000));

TEST(ResetSemantics, ResetReproducesFirstRun) {
  Rng rng(2);
  cvec x(500);
  for (cplx& v : x) v = rng.complex_gaussian(1.0);
  for (const Case& c : stateful_blocks()) {
    auto block = c.make();
    const cvec first = block->process(x);
    block->reset();
    const cvec second = block->process(x);
    EXPECT_LT(max_abs_error(first, second), 1e-12) << c.name;
  }
}

}  // namespace
}  // namespace ofdm::rf
