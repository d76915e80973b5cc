// Property suite: the Mother Model must round-trip *any* valid
// configuration, not just the ten named standards. Each seed draws a
// random parameter set from the full reconfiguration space (geometry,
// tone plan, mapping kind, FEC, interleaving, windowing, framing),
// validates it, and requires a lossless loopback — the generalization
// of experiment E6 from ten points to the whole design space.
//
// A second property hardens the observability layer: for *any* randomly
// assembled RF chain, the attached probe counters must be mutually
// consistent — what block k emits is exactly what block k+1 consumes,
// chunk after chunk, rate changers included.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/tone_map.hpp"
#include "core/transmitter.hpp"
#include "random_params.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm {
namespace {

using core::OfdmParams;
using test::random_params;

class RandomConfig : public ::testing::TestWithParam<int> {};

TEST_P(RandomConfig, ValidatesAndRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const OfdmParams params = random_params(rng);
  ASSERT_NO_THROW(core::validate(params)) << core::summarize(params);

  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);

  // recommended == 0 is legal (an RS block can exceed the configured
  // frame); modulate() then stretches the frame to fit.
  const std::size_t n_bits = std::clamp<std::size_t>(
      tx.recommended_payload_bits(), 200, 2000);
  const bitvec payload = rng.bits(n_bits);
  const auto burst = tx.modulate(payload);

  const auto result = rx.demodulate(burst.samples, payload.size());
  ASSERT_EQ(result.payload.size(), payload.size());
  std::size_t errors = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    errors += payload[i] != result.payload[i];
  }
  EXPECT_EQ(errors, 0u) << core::summarize(params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfig, ::testing::Range(0, 40));

/// One random block drawn from the whole RF library, rate changers
/// included.
std::unique_ptr<rf::Block> random_block(Rng& rng) {
  switch (rng.uniform_int(13)) {
    case 0: return std::make_unique<rf::Gain>(rng.uniform(-10.0, 10.0));
    case 1: return std::make_unique<rf::IqImbalance>(rng.uniform(0.0, 1.0),
                                                     rng.uniform(0.0, 5.0));
    case 2:
      return std::make_unique<rf::DcOffset>(
          cplx{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)});
    case 3: return std::make_unique<rf::PhaseNoise>(
          rng.uniform(1.0, 200.0), 20e6, rng.next_u64() | 1u);
    case 4: return std::make_unique<rf::RappPa>(
          rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0));
    case 5: return std::make_unique<rf::SoftClipPa>(rng.uniform(0.5, 2.0));
    case 6: return std::make_unique<rf::MultipathChannel>(
          rf::exponential_pdp_taps(rng.uniform(1.0, 4.0),
                                   1 + rng.uniform_int(12),
                                   rng.next_u64() | 1u));
    case 7: return std::make_unique<rf::AwgnChannel>(
          rng.uniform(0.0, 1e-2), rng.next_u64() | 1u);
    case 8: return std::make_unique<rf::FrequencyShift>(
          rng.uniform(-5e6, 5e6), 20e6);
    case 9: return std::make_unique<rf::PowerMeter>();
    case 10:  // interpolating rate changer
      return std::make_unique<rf::Dac>(
          static_cast<unsigned>(8 + rng.uniform_int(5)),
          1 + rng.uniform_int(4));
    case 11: {  // random preset from the channel-model library
      const auto& presets = rf::channels::presets();
      rf::channels::MakeOptions opts;
      opts.sample_rate = 20e6;
      opts.seed = rng.next_u64() | 1u;
      return rf::channels::make_preset(
          presets[rng.uniform_int(presets.size())].name, opts);
    }
    default:  // decimating rate changer
      return std::make_unique<rf::DecimatorBlock>(1 + rng.uniform_int(4));
  }
}

class RandomChain : public ::testing::TestWithParam<int> {};

TEST_P(RandomChain, ProbeCountersAreSelfConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  rf::ToneSource source(rng.uniform(0.2e6, 5e6), 20e6,
                        rng.uniform(0.2, 1.0));
  rf::Chain chain;
  const std::size_t n_blocks = 1 + rng.uniform_int(8);
  for (std::size_t i = 0; i < n_blocks; ++i) {
    chain.add_ptr(random_block(rng));
  }

  obs::ProbeSet probes;
  chain.attach_probes(probes);
  source.set_probe(&probes.add(source.name()));
  ASSERT_EQ(probes.size(), n_blocks + 1);
  const obs::BlockProbe& src_probe = probes.at(n_blocks);

  const std::size_t chunks = 2 + rng.uniform_int(6);
  const std::size_t chunk = 256 + 256 * rng.uniform_int(8);
  const rf::RunStats stats = rf::run(source, chain, chunks * chunk, chunk);

  // Source -> first block: every pulled sample enters the chain.
  EXPECT_EQ(src_probe.samples_out(), chunks * chunk);
  EXPECT_EQ(src_probe.samples_out(), probes.at(0).samples_in());

  // Block k -> block k+1: conservation across every link, whatever the
  // mix of 1:1 blocks and rate changers in between.
  for (std::size_t k = 0; k + 1 < n_blocks; ++k) {
    EXPECT_EQ(probes.at(k).samples_out(), probes.at(k + 1).samples_in())
        << "link " << k << " -> " << k + 1 << " of " << n_blocks;
  }

  // Every block saw every chunk, and the driver's own accounting agrees
  // with the probes at both ends of the chain.
  for (std::size_t k = 0; k < n_blocks; ++k) {
    EXPECT_EQ(probes.at(k).invocations(), chunks) << "block " << k;
  }
  EXPECT_EQ(stats.samples_in, src_probe.samples_out());
  EXPECT_EQ(probes.at(n_blocks - 1).samples_out(), stats.samples_out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChain, ::testing::Range(0, 25));

}  // namespace
}  // namespace ofdm
