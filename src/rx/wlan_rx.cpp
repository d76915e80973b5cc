#include "rx/wlan_rx.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/preamble.hpp"
#include "dsp/fft.hpp"
#include "rx/mother/mother_rx.hpp"
#include "rx/sync.hpp"

namespace ofdm::rx {

namespace {

// Derotate a stream by -2*pi*cfo*t (undo a carrier frequency offset).
cvec derotate(std::span<const cplx> x, double cfo_hz, double fs) {
  cvec out(x.size());
  const double step = -kTwoPi * cfo_hz / fs;
  double phase = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = x[i] * cplx{std::cos(phase), std::sin(phase)};
    phase += step;
    if (phase > kPi) phase -= kTwoPi;
    if (phase < -kPi) phase += kTwoPi;
  }
  return out;
}

// The 64-sample time-domain long training symbol at data scaling.
cvec ltf_time_symbol() {
  // Cheap per-call plan: tables come from the process-wide plan cache.
  dsp::Fft fft(64);
  cvec t = fft.inverse(core::wlan_ltf_bins());
  const double scale = 64.0 / std::sqrt(52.0);
  for (cplx& v : t) v *= scale;
  return t;
}

}  // namespace

WlanPacketReceiver::WlanPacketReceiver(core::OfdmParams params)
    : params_(std::move(params)) {
  OFDM_REQUIRE(params_.fft_size == 64 &&
                   params_.frame.preamble == core::PreambleKind::kWlan,
               "WlanPacketReceiver: needs the 802.11a burst structure");
}

std::optional<std::size_t> WlanPacketReceiver::detect(
    std::span<const cplx> stream) const {
  const rvec metric = stf_metric(stream);
  // Require the plateau to persist for half the STF to reject noise
  // spikes.
  constexpr std::size_t kPlateau = 80;
  std::size_t run = 0;
  for (std::size_t i = 0; i < metric.size(); ++i) {
    if (metric[i] > threshold_) {
      if (++run >= kPlateau) return i + 1 - run;
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

WlanRxResult WlanPacketReceiver::receive(std::span<const cplx> stream,
                                         std::size_t payload_bits) const {
  WlanRxResult result;
  const double fs = params_.sample_rate;

  // 1. Packet detection on the raw stream.
  const auto d0 = detect(stream);
  if (!d0) return result;
  result.detected = true;

  // 2. Coarse CFO from the STF's 16-sample periodicity. The correlator
  // x(t) x*(t+16) rotates by +2*pi*f*16/fs for CFO f, and estimate_cfo
  // returns arg/(2*pi*lag)*fs, i.e. +f directly.
  const std::size_t stf = *d0;
  if (stf + 160 > stream.size()) return result;
  result.coarse_cfo_hz = estimate_cfo(stream, stf + 16, 16, 96, fs);

  // 3. Coarse-correct, then fine timing by LTF cross-correlation.
  cvec corrected = derotate(stream.subspan(stf),
                            result.coarse_cfo_hz, fs);
  const cvec ltf = ltf_time_symbol();
  // T1 nominally starts 192 samples into the burst; search +-24.
  std::size_t best = 0;
  double best_mag = -1.0;
  const std::size_t lo = 192 > 24 ? 192 - 24 : 0;
  for (std::size_t d = lo; d + 64 <= corrected.size() && d <= 192 + 24;
       ++d) {
    cplx corr{0.0, 0.0};
    for (std::size_t i = 0; i < 64; ++i) {
      corr += corrected[d + i] * std::conj(ltf[i]);
    }
    const double mag = std::abs(corr);
    if (mag > best_mag) {
      best_mag = mag;
      best = d;
    }
  }
  const std::size_t t1 = best;
  if (t1 + 128 + params_.symbol_len() > corrected.size()) return result;
  result.burst_start = stf + t1 - 192;

  // 4. Fine CFO from the two repeated long symbols.
  result.fine_cfo_hz = estimate_cfo(corrected, t1, 64, 64, fs);
  corrected = derotate(stream.subspan(result.burst_start),
                       result.coarse_cfo_hz + result.fine_cfo_hz, fs);

  // 5. Channel estimation averaged over T1 and T2. Per-call plan
  // construction shares the cached 64-point tables.
  dsp::Fft fft(64);
  const double scale = 64.0 / std::sqrt(52.0);
  const cvec known = core::wlan_ltf_bins();
  const cvec r1 =
      fft.forward(std::span<const cplx>(corrected).subspan(192, 64));
  const cvec r2 =
      fft.forward(std::span<const cplx>(corrected).subspan(256, 64));
  cvec eq(64, cplx{1.0, 0.0});
  result.channel.assign(64, cplx{0.0, 0.0});
  for (std::size_t bin = 0; bin < 64; ++bin) {
    if (std::abs(known[bin]) == 0.0) continue;
    const cplx h = (r1[bin] + r2[bin]) / (2.0 * scale * known[bin]);
    result.channel[bin] = h;
    if (std::abs(h) > 1e-12) eq[bin] = 1.0 / h;
  }

  // 6/7. Generic pipeline with the estimated equalizer and pilot-based
  // common-phase-error tracking (absorbs residual CFO).
  MotherReceiver rx(params_);
  rx.set_equalizer(std::move(eq));
  rx.set_pilot_tracking(true);
  auto decoded = rx.demodulate(corrected, payload_bits);
  result.payload = std::move(decoded.payload);
  result.symbols = decoded.symbols;
  return result;
}

}  // namespace ofdm::rx
