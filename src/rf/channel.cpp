#include "rf/channel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/serial.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm::rf {

AwgnChannel::AwgnChannel(double noise_power, std::uint64_t seed)
    : noise_power_(noise_power), rng_(seed), seed_(seed) {
  OFDM_REQUIRE(noise_power >= 0.0,
               "AwgnChannel: noise power must be non-negative");
}

void AwgnChannel::process(std::span<const cplx> in, cvec& out) {
  // Noise is drawn one cache-resident batch at a time and added
  // straight into `out`, so the block holds no chunk-sized buffer. The
  // batched fill is the one-at-a-time stream, so batching moves no
  // draw, and exact aliasing of `in` and `out` stays safe.
  constexpr std::size_t kBatch = 256;
  cplx noise[kBatch];
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); i += kBatch) {
    const std::size_t m = std::min(kBatch, in.size() - i);
    rng_.complex_gaussian_fill({noise, m}, noise_power_);
    simd::kernels().cvec_add(in.data() + i, noise, out.data() + i, m);
  }
}

void AwgnChannel::reset() { rng_ = Rng(seed_); }

void AwgnChannel::save_state(StateWriter& w) const { rng_.save(w); }

void AwgnChannel::load_state(StateReader& r) { rng_.load(r); }

double snr_to_noise_power(double signal_power, double snr_db) {
  OFDM_REQUIRE(signal_power >= 0.0,
               "snr_to_noise_power: signal power must be non-negative");
  return signal_power / from_db(snr_db);
}

MultipathChannel::MultipathChannel(cvec taps) : taps_(std::move(taps)) {
  OFDM_REQUIRE(!taps_.empty(), "MultipathChannel: empty tap vector");
  history_.assign(taps_.size(), cplx{0.0, 0.0});
}

void MultipathChannel::process(std::span<const cplx> in, cvec& out) {
  const std::size_t n_taps = taps_.size();
  out.resize(in.size());
  if (in.empty()) return;
  // Same window layout as dsp::FirFilter: [taps-1 history | chunk],
  // handed to the complex-tap FIR kernel in one call.
  const std::size_t hist = n_taps - 1;
  window_.resize(hist + in.size());
  std::copy(history_.end() - static_cast<std::ptrdiff_t>(hist),
            history_.end(), window_.begin());
  std::copy(in.begin(), in.end(),
            window_.begin() + static_cast<std::ptrdiff_t>(hist));
  simd::kernels().fir_cc(window_.data(), taps_.data(), n_taps,
                         out.data(), in.size());
  if (in.size() >= n_taps) {
    std::copy(in.end() - static_cast<std::ptrdiff_t>(n_taps), in.end(),
              history_.begin());
  } else {
    std::move(history_.begin() + static_cast<std::ptrdiff_t>(in.size()),
              history_.end(), history_.begin());
    std::copy(in.begin(), in.end(),
              history_.end() - static_cast<std::ptrdiff_t>(in.size()));
  }
}

void MultipathChannel::reset() {
  history_.assign(taps_.size(), cplx{0.0, 0.0});
}

void MultipathChannel::save_state(StateWriter& w) const {
  // Kept in the historical circular-delay-line format (newest at
  // head_, canonically 0) so snapshots round-trip across versions.
  const std::size_t n_taps = taps_.size();
  cvec delay(n_taps);
  for (std::size_t k = 0; k < n_taps; ++k) {
    delay[k] = history_[n_taps - 1 - k];
  }
  w.vec_c(delay);
  w.u64(0);
}

void MultipathChannel::load_state(StateReader& r) {
  cvec delay;
  r.vec_c(delay);
  if (delay.size() != taps_.size()) {
    throw StateError("MultipathChannel::load_state: snapshot has " +
                     std::to_string(delay.size()) +
                     " delay-line entries, channel has " +
                     std::to_string(taps_.size()) + " taps");
  }
  const std::size_t head = r.u64();
  const std::size_t n_taps = taps_.size();
  for (std::size_t j = 0; j < n_taps; ++j) {
    history_[j] = delay[(head + n_taps - 1 - j) % n_taps];
  }
}

cvec exponential_pdp_taps(double rms_delay_samples, std::size_t n_taps,
                          std::uint64_t seed) {
  OFDM_REQUIRE(rms_delay_samples > 0.0 && n_taps >= 1,
               "exponential_pdp_taps: invalid profile");
  Rng rng(seed);
  cvec taps(n_taps);
  double total = 0.0;
  for (std::size_t k = 0; k < n_taps; ++k) {
    const double power =
        std::exp(-static_cast<double>(k) / rms_delay_samples);
    taps[k] = rng.complex_gaussian(power);
    total += std::norm(taps[k]);
  }
  const double norm = 1.0 / std::sqrt(total);
  for (cplx& t : taps) t *= norm;
  return taps;
}

cvec twisted_pair_taps(double cutoff_norm, double attenuation_db,
                       std::size_t n_taps) {
  const rvec lp = dsp::design_lowpass(cutoff_norm, n_taps);
  const double gain = std::sqrt(from_db(-attenuation_db));
  cvec taps(lp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    taps[i] = {lp[i] * gain, 0.0};
  }
  return taps;
}

}  // namespace ofdm::rf
