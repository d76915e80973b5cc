#include "coding/mpeg_ts.hpp"

#include "coding/lfsr.hpp"
#include "common/error.hpp"

namespace ofdm::coding {

TsPacketizer::TsPacketizer(std::uint16_t pid) : pid_(pid) {
  OFDM_REQUIRE(pid <= 0x1FFF, "TsPacketizer: PID is 13 bits");
}

bytevec TsPacketizer::packetize(std::span<const std::uint8_t> payload) {
  constexpr std::size_t kBody = kTsPacketSize - 4;
  const std::size_t packets = (payload.size() + kBody - 1) / kBody;
  bytevec out;
  out.reserve(std::max<std::size_t>(packets, 1) * kTsPacketSize);
  std::size_t pos = 0;
  for (std::size_t pkt = 0; pkt < std::max<std::size_t>(packets, 1);
       ++pkt) {
    out.push_back(kTsSyncByte);
    // Header: PUSI on the first packet, 13-bit PID, continuity counter.
    const std::uint8_t pusi = pkt == 0 ? 0x40 : 0x00;
    out.push_back(static_cast<std::uint8_t>(pusi | (pid_ >> 8)));
    out.push_back(static_cast<std::uint8_t>(pid_ & 0xFF));
    out.push_back(static_cast<std::uint8_t>(0x10 | continuity_));
    continuity_ = static_cast<std::uint8_t>((continuity_ + 1) & 0x0F);
    for (std::size_t i = 0; i < kBody; ++i) {
      out.push_back(pos < payload.size() ? payload[pos] : 0);
      ++pos;
    }
  }
  return out;
}

bytevec TsPacketizer::extract(std::span<const std::uint8_t> ts) {
  OFDM_REQUIRE_DIM(ts.size() % kTsPacketSize == 0,
                   "TsPacketizer::extract: not a whole packet count");
  bytevec payload;
  payload.reserve(ts.size() / kTsPacketSize * (kTsPacketSize - 4));
  for (std::size_t off = 0; off < ts.size(); off += kTsPacketSize) {
    OFDM_REQUIRE(ts[off] == kTsSyncByte,
                 "TsPacketizer::extract: lost sync");
    payload.insert(payload.end(),
                   ts.begin() + static_cast<std::ptrdiff_t>(off + 4),
                   ts.begin() + static_cast<std::ptrdiff_t>(
                                    off + kTsPacketSize));
  }
  return payload;
}

bool TsPacketizer::sync_ok(std::span<const std::uint8_t> ts) {
  if (ts.size() % kTsPacketSize != 0) return false;
  for (std::size_t off = 0; off < ts.size(); off += kTsPacketSize) {
    if (ts[off] != kTsSyncByte) return false;
  }
  return true;
}

namespace {
constexpr std::uint64_t kDispersalTaps =
    (std::uint64_t{1} << 14) | (std::uint64_t{1} << 13);

std::uint64_t dispersal_seed() {
  // init string (delay 1..15): 1,0,0,1,0,1,0,1,0,0,0,0,0,0,0
  std::uint64_t seed = 0;
  const int init[15] = {1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 15; ++i) {
    if (init[i]) seed |= std::uint64_t{1} << i;
  }
  return seed;
}

std::uint8_t prbs_byte(Lfsr& lfsr) {
  return static_cast<std::uint8_t>(lfsr.next(8));
}
}  // namespace

bytevec ts_energy_dispersal(std::span<const std::uint8_t> ts) {
  OFDM_REQUIRE_DIM(ts.size() % kTsPacketSize == 0,
                   "ts_energy_dispersal: not a whole packet count");
  bytevec out(ts.begin(), ts.end());
  Lfsr lfsr(15, kDispersalTaps, dispersal_seed());
  const std::size_t packets = ts.size() / kTsPacketSize;
  for (std::size_t pkt = 0; pkt < packets; ++pkt) {
    const std::size_t base = pkt * kTsPacketSize;
    if (pkt % 8 == 0) {
      lfsr.reset(dispersal_seed());
      // Invert (or restore) the group-leading sync byte; the PRBS does
      // not advance under it.
      out[base] = static_cast<std::uint8_t>(out[base] ^
                                            (kTsSyncByte ^
                                             kTsInvertedSync));
    } else {
      // PRBS advances under non-leading sync bytes without applying.
      (void)prbs_byte(lfsr);
    }
    for (std::size_t i = 1; i < kTsPacketSize; ++i) {
      out[base + i] =
          static_cast<std::uint8_t>(out[base + i] ^ prbs_byte(lfsr));
    }
  }
  return out;
}

bool dispersed_sync_ok(std::span<const std::uint8_t> ts) {
  if (ts.size() % kTsPacketSize != 0) return false;
  const std::size_t packets = ts.size() / kTsPacketSize;
  for (std::size_t pkt = 0; pkt < packets; ++pkt) {
    const std::uint8_t want =
        pkt % 8 == 0 ? kTsInvertedSync : kTsSyncByte;
    if (ts[pkt * kTsPacketSize] != want) return false;
  }
  return true;
}

}  // namespace ofdm::coding
