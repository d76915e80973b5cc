// MPEG transport-stream framing tests, including an end-to-end DVB-T
// chain: TS packetize -> energy dispersal -> Mother Model -> receiver
// -> de-dispersal -> extraction.
#include <gtest/gtest.h>

#include "coding/mpeg_ts.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "rx/mother/mother_rx.hpp"

namespace ofdm::coding {
namespace {

TEST(TsPacketizer, ProducesWholeSyncedPackets) {
  TsPacketizer pkt(0x0123);
  Rng rng(1);
  const bytevec payload = rng.bytes(500);
  const bytevec ts = pkt.packetize(payload);
  EXPECT_EQ(ts.size() % kTsPacketSize, 0u);
  EXPECT_EQ(ts.size() / kTsPacketSize, 3u);  // ceil(500/184)
  EXPECT_TRUE(TsPacketizer::sync_ok(ts));
}

TEST(TsPacketizer, ExtractInvertsPacketize) {
  TsPacketizer pkt;
  Rng rng(2);
  const bytevec payload = rng.bytes(184 * 4);  // exact fit, no padding
  const bytevec ts = pkt.packetize(payload);
  EXPECT_EQ(TsPacketizer::extract(ts), payload);
}

TEST(TsPacketizer, ContinuityCounterWraps) {
  TsPacketizer pkt(0x10);
  Rng rng(3);
  const bytevec ts = pkt.packetize(rng.bytes(184 * 20));
  for (std::size_t p = 0; p < 20; ++p) {
    EXPECT_EQ(ts[p * kTsPacketSize + 3] & 0x0F,
              static_cast<int>(p % 16));
  }
}

TEST(TsPacketizer, PidInHeader) {
  TsPacketizer pkt(0x1ABC);
  const bytevec ts = pkt.packetize(bytevec(10, 0xEE));
  EXPECT_EQ(((ts[1] & 0x1F) << 8) | ts[2], 0x1ABC);
  EXPECT_THROW(TsPacketizer(0x2000), Error);  // PID is 13 bits
}

TEST(EnergyDispersal, IsAnInvolution) {
  TsPacketizer pkt;
  Rng rng(4);
  const bytevec ts = pkt.packetize(rng.bytes(184 * 16));
  const bytevec dispersed = ts_energy_dispersal(ts);
  EXPECT_NE(dispersed, ts);
  EXPECT_EQ(ts_energy_dispersal(dispersed), ts);
}

TEST(EnergyDispersal, SyncInversionPattern) {
  TsPacketizer pkt;
  Rng rng(5);
  const bytevec ts = pkt.packetize(rng.bytes(184 * 16));
  const bytevec dispersed = ts_energy_dispersal(ts);
  EXPECT_TRUE(dispersed_sync_ok(dispersed));
  EXPECT_EQ(dispersed[0], kTsInvertedSync);
  EXPECT_EQ(dispersed[kTsPacketSize], kTsSyncByte);
  EXPECT_EQ(dispersed[8 * kTsPacketSize], kTsInvertedSync);
}

TEST(EnergyDispersal, ActuallyRandomizesConstantPayload) {
  TsPacketizer pkt;
  const bytevec ts = pkt.packetize(bytevec(184 * 8, 0x00));
  const bytevec dispersed = ts_energy_dispersal(ts);
  // Count distinct byte values in the dispersed payload: a PRBS over
  // ~1.5 kB must produce a rich distribution.
  std::set<std::uint8_t> seen(dispersed.begin(), dispersed.end());
  EXPECT_GT(seen.size(), 100u);
}

TEST(DvbChain, TransportStreamSurvivesTheFullPhy) {
  // The complete DVB-T payload path: TS framing + dispersal feeding the
  // Mother Model (whose own scrambler/RS/conv chain wraps it), decoded
  // back to an intact transport stream.
  TsPacketizer pkt(0x100);
  Rng rng(6);
  const bytevec payload = rng.bytes(184 * 8);
  const bytevec dispersed = ts_energy_dispersal(pkt.packetize(payload));
  const bitvec phy_bits = bytes_to_bits_msb(dispersed);

  core::OfdmParams params = core::profile_dvbt(
      core::DvbtMode::k2k, mapping::Scheme::kQam16);
  core::Transmitter tx(params);
  rx::MotherReceiver rx(params);
  const auto burst = tx.modulate(phy_bits);
  const auto result = rx.demodulate(burst.samples, phy_bits.size());
  ASSERT_EQ(result.payload, phy_bits);

  const bytevec rx_ts = bits_to_bytes_msb(result.payload);
  EXPECT_TRUE(dispersed_sync_ok(rx_ts));
  EXPECT_EQ(TsPacketizer::extract(ts_energy_dispersal(rx_ts)), payload);
}

}  // namespace
}  // namespace ofdm::coding
