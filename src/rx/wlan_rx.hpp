// Complete 802.11a acquisition receiver.
//
// rx::MotherReceiver::demodulate() assumes an aligned burst; this
// receiver performs the full acquisition chain a real RF front-end
// needs, making the co-simulation experiments end-to-end realistic:
//
//   1. packet detection      — STF 16-sample autocorrelation plateau
//   2. coarse CFO            — STF autocorrelation phase (±625 kHz range)
//   3. fine timing           — cross-correlation against the known LTF
//   4. fine CFO              — LTF 64-sample autocorrelation (±156 kHz)
//   5. channel estimation    — averaged over both long training symbols
//   6. per-symbol tracking   — common phase error from the four pilots
//   7. demap / deinterleave / Viterbi / descramble via rx::MotherReceiver
#pragma once

#include <optional>
#include <span>

#include "core/params.hpp"

namespace ofdm::rx {

struct WlanRxResult {
  bool detected = false;
  std::size_t burst_start = 0;   ///< estimated index of the STF start
  double coarse_cfo_hz = 0.0;
  double fine_cfo_hz = 0.0;
  cvec channel;                  ///< per-bin estimate (64 entries)
  bitvec payload;
  std::size_t symbols = 0;
};

class WlanPacketReceiver {
 public:
  /// `params` must be an 802.11a/g profile (64-point geometry with the
  /// WLAN preamble).
  explicit WlanPacketReceiver(core::OfdmParams params);

  /// Detection threshold on the normalized STF plateau metric.
  void set_detection_threshold(double m) { threshold_ = m; }

  /// Process a sample stream containing (at most) one burst at an
  /// unknown offset with unknown CFO; returns the decoded payload.
  WlanRxResult receive(std::span<const cplx> stream,
                       std::size_t payload_bits) const;

 private:
  std::optional<std::size_t> detect(std::span<const cplx> stream) const;

  core::OfdmParams params_;
  double threshold_ = 0.7;
};

}  // namespace ofdm::rx
