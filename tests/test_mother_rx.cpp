// RX Mother Model tests: one parameter-driven receiver family covering
// all ten standards. Coded and uncoded (pre-FEC) loopbacks per
// standard, the padding-symbol skip at symbol-boundary payload sizes,
// the +fec reference-FEC overlay, timing acquisition, the
// soft-vs-hard decoding ordering on AWGN, and per-standard receiver
// descriptors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "coding/convolutional.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rx/mother/descriptor.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm {
namespace {

using core::OfdmParams;
using core::Standard;

std::string safe_name(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class MotherRxFamily : public ::testing::TestWithParam<Standard> {};

TEST_P(MotherRxFamily, CodedLoopbackIsLossless) {
  const OfdmParams params = core::profile_for(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  ASSERT_EQ(rx.options().mode, rx::RxMode::kCoded);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  const std::size_t n_bits =
      std::min<std::size_t>(tx.recommended_payload_bits(), 4096);
  const bitvec payload = rng.bits(n_bits);

  const auto burst = tx.modulate(payload);
  const auto result = rx.demodulate(burst.samples, payload.size());
  EXPECT_EQ(result.payload, payload)
      << "standard: " << core::standard_name(GetParam());
  EXPECT_EQ(result.rs_blocks_failed, 0u);
}

TEST_P(MotherRxFamily, UncodedTapReturnsExactCodedStream) {
  const OfdmParams params = core::profile_for(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  rx.set_mode(rx::RxMode::kUncoded);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 202);
  const std::size_t n_bits =
      std::min<std::size_t>(tx.recommended_payload_bits(), 4096);
  const bitvec payload = rng.bits(n_bits);

  const auto burst = tx.modulate(payload);
  const auto result = rx.demodulate(burst.samples, payload.size());

  // The uncoded tap stops before FEC: no decoded payload, and the raw
  // hard-demapped stream must reproduce the transmitter's coded stream
  // (symbol filler padding included) bit for bit on a clean channel.
  EXPECT_TRUE(result.payload.empty());
  const bitvec coded_ref = tx.encode_payload(payload);
  EXPECT_EQ(result.raw_bits, coded_ref)
      << "standard: " << core::standard_name(GetParam());
}

TEST_P(MotherRxFamily, DemodulateHandsBackTheExtractedTones) {
  // The campaign's EVM reads the tones demodulate() hands back instead
  // of extracting them again: they must be extract_data_tones()'s
  // values, here on a noisy burst with an equalizer and pilot tracking.
  const OfdmParams params = core::profile_for(GetParam());
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  rx.set_demap(mapping::DemapMode::kSoft);
  rx.set_pilot_tracking(true);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 303);
  const std::size_t n_bits =
      std::min<std::size_t>(tx.recommended_payload_bits(), 1024);
  const auto burst = tx.modulate(rng.bits(n_bits));
  rf::Chain chain;
  chain.add<rf::AwgnChannel>(1e-3, rng.next_u64());
  cvec noisy;
  chain.process(burst.samples, noisy);
  rx.set_equalizer(rx.estimate_equalizer(noisy));

  std::vector<cvec> tones;
  const auto result = rx.demodulate(noisy, n_bits, &tones);
  ASSERT_EQ(tones.size(), result.symbols);
  ASSERT_GE(tones.size(), burst.data_symbols);
  EXPECT_EQ(tones, rx.extract_data_tones(noisy, tones.size()))
      << "standard: " << core::standard_name(GetParam());
}

// Punctured coded length of an n-bit payload: RS block fill, then the
// convolutional encoder's own terminated, punctured output length.
std::size_t punctured_bits(const OfdmParams& p, std::size_t n) {
  std::size_t bits = n;
  if (p.fec.rs_enabled) {
    const std::size_t bytes = (n + 7) / 8;
    bits = std::max<std::size_t>((bytes + p.fec.rs_k - 1) / p.fec.rs_k, 1) *
           p.fec.rs_n * 8;
  }
  if (p.fec.conv_enabled) {
    const coding::ConvEncoder enc(p.fec.conv);
    bits = coding::puncture(enc.encode_terminated(bitvec(bits, 0)),
                            p.fec.puncture)
               .size();
  }
  return bits;
}

// Largest payload whose punctured length is below `limit` (0 if none);
// the length grows monotonically with the payload.
std::size_t last_payload_below(const OfdmParams& p, std::size_t limit) {
  std::size_t lo = 0;
  std::size_t hi = limit;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (punctured_bits(p, mid) < limit) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

TEST_P(MotherRxFamily, PaddingSymbolSkipEdgesRoundTrip) {
  // The coded receiver demaps only the symbols that carry coded bits.
  // Payloads whose punctured length ends just before, exactly on and
  // just after a symbol boundary, inside a frame that still pads, must
  // decode exactly with hard and soft demapping; the uncoded tap still
  // returns every symbol. Profiles with an outer code also run without
  // it: RS blocks move the punctured length in steps that never land
  // on a boundary, the bare inner code does.
  const OfdmParams profile = core::profile_for(GetParam());
  std::vector<OfdmParams> variants = {profile};
  if (profile.fec.rs_enabled) {
    variants.push_back(profile);
    variants.back().fec.rs_enabled = false;
  }
  for (const OfdmParams& params : variants) {
    core::Transmitter tx(params);
    const std::size_t cbps = tx.bits_per_symbol();
    const std::size_t frame = params.frame.symbols_per_frame;
    // The first boundary k*cbps with at least one padding symbol left
    // after it, hit exactly when the code can.
    std::size_t boundary = 0;
    for (std::size_t k = 1; k + 1 < frame && boundary == 0; ++k) {
      const std::size_t b = k * cbps;
      const std::size_t on = last_payload_below(params, b + 1);
      if (last_payload_below(params, b) == 0) continue;
      if (params.fec.rs_enabled || punctured_bits(params, on) == b) {
        boundary = b;
      }
    }
    ASSERT_GT(boundary, 0u) << "no boundary for "
                            << core::standard_name(GetParam());
    const std::size_t on = last_payload_below(params, boundary + 1);
    const std::size_t sizes[] = {last_payload_below(params, boundary), on,
                                 on + 1};
    if (!params.fec.rs_enabled) {
      // One bit either side where the code rate reaches it; a rate-1/2
      // code moves two bits at a time.
      EXPECT_LE(boundary - punctured_bits(params, sizes[0]), 2u);
      EXPECT_LE(punctured_bits(params, sizes[2]) - boundary, 2u);
    }

    rx::MotherReceiver rx(params);
    rx::MotherReceiver::Result result;
    rx::MotherReceiver::Scratch scratch;
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 404);
    for (const std::size_t n : sizes) {
      const bitvec payload = rng.bits(n);
      const auto burst = tx.modulate(payload);
      const std::string where = core::standard_name(GetParam()) +
                                (params.fec.rs_enabled ? "" : " (no RS)") +
                                ", payload " + std::to_string(n) +
                                ", punctured " +
                                std::to_string(punctured_bits(params, n));
      ASSERT_LT(punctured_bits(params, n), burst.data_symbols * cbps)
          << where << ": no padding symbol to skip";
      for (const auto demap :
           {mapping::DemapMode::kHard, mapping::DemapMode::kSoft}) {
        rx.set_mode(rx::RxMode::kCoded);
        rx.set_demap(demap);
        rx.demodulate_into(burst.samples, n, result, scratch);
        EXPECT_EQ(result.payload, payload)
            << where << ", " << mapping::demap_mode_name(demap);
      }
      rx.set_mode(rx::RxMode::kUncoded);
      rx.demodulate_into(burst.samples, n, result, scratch);
      EXPECT_EQ(result.raw_bits.size(), result.symbols * cbps) << where;
      EXPECT_EQ(result.raw_bits, tx.encode_payload(payload)) << where;
    }
  }
}

TEST_P(MotherRxFamily, DescriptorNamesEveryStage) {
  const OfdmParams params = core::profile_for(GetParam());
  const auto d = rx::describe_receiver(params);
  EXPECT_FALSE(d.sync.empty());
  EXPECT_FALSE(d.equalizer.empty());
  EXPECT_FALSE(d.demapper.empty());
  EXPECT_FALSE(d.inner_code.empty());
  EXPECT_FALSE(d.outer_code.empty());
  EXPECT_NE(d.chain.find("fft("), std::string::npos);
  EXPECT_NE(d.chain.find("demap["), std::string::npos);

  // The soft path exists exactly where a fixed constellation feeds an
  // inner convolutional code.
  const bool expect_soft =
      params.fec.conv_enabled &&
      params.mapping == core::MappingKind::kFixed;
  EXPECT_EQ(d.soft_capable, expect_soft)
      << "standard: " << core::standard_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStandards, MotherRxFamily,
    ::testing::ValuesIn(core::kStandardFamily),
    [](const ::testing::TestParamInfo<Standard>& info) {
      return safe_name(core::standard_name(info.param));
    });

// ---------------------------------------------------------------------
// +fec reference-FEC overlay: uncoded profiles gain the family's
// reference codes and still close the loop.

TEST(ReferenceFecOverlay, AdslGainsRsAndRoundTrips) {
  const OfdmParams params =
      core::with_reference_fec(core::profile_for(Standard::kAdsl));
  ASSERT_TRUE(params.fec.rs_enabled);
  EXPECT_EQ(params.fec.rs_n, 255u);
  EXPECT_EQ(params.fec.rs_k, 239u);
  EXPECT_FALSE(params.fec.conv_enabled);

  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  Rng rng(303);
  const bitvec payload = rng.bits(
      std::min<std::size_t>(tx.recommended_payload_bits(), 4096));
  const auto result = rx.demodulate(tx.modulate(payload).samples,
                                    payload.size());
  EXPECT_EQ(result.payload, payload);
  EXPECT_EQ(result.rs_blocks_failed, 0u);
}

TEST(ReferenceFecOverlay, DrmGainsConvolutionalAndRoundTrips) {
  const OfdmParams params = core::with_reference_fec(
      core::profile_drm(core::DrmMode::kB));
  ASSERT_TRUE(params.fec.conv_enabled);
  EXPECT_FALSE(params.fec.rs_enabled);

  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  Rng rng(304);
  const bitvec payload = rng.bits(
      std::min<std::size_t>(tx.recommended_payload_bits(), 4000));
  const auto result = rx.demodulate(tx.modulate(payload).samples,
                                    payload.size());
  EXPECT_EQ(result.payload, payload);
}

TEST(ReferenceFecOverlay, AlreadyCodedProfilesAreUnchanged) {
  const OfdmParams before = core::profile_for(Standard::kDvbT);
  const OfdmParams after = core::with_reference_fec(before);
  EXPECT_EQ(after.fec.rs_enabled, before.fec.rs_enabled);
  EXPECT_EQ(after.fec.conv_enabled, before.fec.conv_enabled);
  EXPECT_EQ(after.fec.rs_n, before.fec.rs_n);
  EXPECT_EQ(after.fec.rs_k, before.fec.rs_k);
}

// ---------------------------------------------------------------------
// Timing acquisition.

TEST(MotherRxSync, WlanStfPlateauRecoversBurstStart) {
  const OfdmParams params = core::profile_for(Standard::kWlan80211a);
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  Rng rng(404);
  const bitvec payload = rng.bits(tx.recommended_payload_bits());
  const auto burst = tx.modulate(payload);

  // Burst embedded after 137 samples of silence.
  const std::size_t lead = 137;
  cvec stream(lead, cplx{0.0, 0.0});
  stream.insert(stream.end(), burst.samples.begin(),
                burst.samples.end());

  const auto rep = rx.synchronize(stream, params.sample_rate);
  EXPECT_TRUE(rep.used_preamble);
  EXPECT_GE(rep.metric, 0.7);
  // Plateau-edge detection is exact to within a few samples on a clean
  // channel; the LTF-trained equalizer absorbs that residual, so the
  // recovered offset must decode losslessly.
  ASSERT_NEAR(static_cast<double>(rep.offset),
              static_cast<double>(lead), 8.0);
  const auto aligned =
      std::span<const cplx>(stream).subspan(rep.offset);
  rx.set_equalizer(rx.estimate_equalizer(aligned));
  const auto result = rx.demodulate(aligned, payload.size());
  EXPECT_EQ(result.payload, payload);
}

TEST(MotherRxSync, CpCorrelationLocksOnCleanBurst) {
  const OfdmParams params = core::profile_for(Standard::kWman80216a);
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  Rng rng(405);
  const bitvec payload = rng.bits(
      std::min<std::size_t>(tx.recommended_payload_bits(), 4096));
  const auto burst = tx.modulate(payload);

  const auto rep = rx.synchronize(burst.samples, params.sample_rate);
  EXPECT_FALSE(rep.used_preamble);
  EXPECT_GT(rep.metric, 0.5);
  // A clean, unshifted burst must lock on a symbol boundary at (or
  // within the windowing ramp of) the burst start.
  EXPECT_LE(rep.offset, params.cp_len);
}

// ---------------------------------------------------------------------
// Soft-decision ordering: over AWGN, max-log LLR + soft Viterbi must
// not decode worse than the hard path on an error-bearing run.

TEST(MotherRxSoft, SoftDecodingNoWorseThanHardOnAwgn) {
  const OfdmParams params =
      core::profile_wlan_80211a(core::WlanRate::k12);
  core::Transmitter tx(params);
  rx::MotherReceiver hard_rx(params);
  rx::MotherReceiver soft_rx(params);
  soft_rx.set_demap(mapping::DemapMode::kSoft);
  ASSERT_TRUE(soft_rx.soft_path_active());
  ASSERT_FALSE(hard_rx.soft_path_active());

  std::size_t hard_errors = 0;
  std::size_t soft_errors = 0;
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng = Rng::substream(606, 0, trial);
    const bitvec payload = rng.bits(512);
    const auto burst = tx.modulate(payload);

    double sig_power = 0.0;
    for (const cplx& x : burst.samples) sig_power += std::norm(x);
    sig_power /= static_cast<double>(burst.samples.size());
    const double noise_power = rf::snr_to_noise_power(sig_power, 0.5);

    rf::Chain chain;
    chain.add<rf::AwgnChannel>(noise_power, rng.next_u64());
    cvec noisy;
    chain.process(burst.samples, noisy);

    soft_rx.set_noise_from_sample_variance(noise_power);
    const auto hard = hard_rx.demodulate(noisy, payload.size());
    const auto soft = soft_rx.demodulate(noisy, payload.size());
    for (std::size_t i = 0; i < payload.size(); ++i) {
      hard_errors += payload[i] != hard.payload[i];
      soft_errors += payload[i] != soft.payload[i];
    }
  }
  // The run must actually exercise the decoders...
  EXPECT_GT(hard_errors, 0u);
  // ...and soft decisions must not lose to hard ones in aggregate.
  EXPECT_LE(soft_errors, hard_errors);
}

// ---------------------------------------------------------------------
// Mode token plumbing.

TEST(RxModeNames, RoundTrip) {
  EXPECT_EQ(rx::rx_mode_name(rx::RxMode::kCoded), "coded");
  EXPECT_EQ(rx::rx_mode_name(rx::RxMode::kUncoded), "uncoded");
  EXPECT_EQ(rx::rx_mode_from_name("coded"), rx::RxMode::kCoded);
  EXPECT_EQ(rx::rx_mode_from_name("uncoded"), rx::RxMode::kUncoded);
  EXPECT_FALSE(rx::rx_mode_from_name("sideways").has_value());
  EXPECT_EQ(mapping::demap_mode_name(mapping::DemapMode::kHard), "hard");
  EXPECT_EQ(mapping::demap_mode_name(mapping::DemapMode::kSoft), "soft");
}

}  // namespace
}  // namespace ofdm
