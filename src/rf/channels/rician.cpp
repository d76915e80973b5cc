#include "rf/channels/rician.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf::channels {

RicianChannel::RicianChannel(double k_factor, double doppler_spread_hz,
                             double sample_rate, std::uint64_t seed,
                             double los_doppler_hz,
                             std::size_t n_sinusoids)
    : k_(k_factor),
      los_amp_(std::sqrt(k_factor / (k_factor + 1.0))),
      diffuse_power_(1.0 / (k_factor + 1.0)),
      los_step_(kTwoPi * los_doppler_hz / sample_rate),
      doppler_spread_hz_(doppler_spread_hz),
      sample_rate_(sample_rate),
      seed_(seed),
      n_sinusoids_(n_sinusoids) {
  OFDM_REQUIRE(k_factor >= 0.0,
               "RicianChannel: K factor must be non-negative");
  OFDM_REQUIRE(doppler_spread_hz >= 0.0 && sample_rate > 0.0,
               "RicianChannel: invalid Doppler spread/sample rate");
  init_process();
}

void RicianChannel::init_process() {
  Rng rng(seed_);
  const double sigma_rad =
      kTwoPi * (doppler_spread_hz_ / 2.0) / sample_rate_;
  fading_ = DopplerProcess(DopplerSpectrum::kGaussian, diffuse_power_,
                           sigma_rad, n_sinusoids_, rng);
  los_phase0_ = rng.uniform(0.0, kTwoPi);
  los_phase_ = los_phase0_;
}

cplx RicianChannel::current_gain() const {
  const cplx los{los_amp_ * std::cos(los_phase_),
                 los_amp_ * std::sin(los_phase_)};
  return los + fading_.gain();
}

void RicianChannel::process(std::span<const cplx> in, cvec& out) {
  if (out.data() != in.data()) out.assign(in.begin(), in.end());
  for (cplx& v : out) {
    v *= current_gain();
    los_phase_ += los_step_;
    fading_.advance();
  }
}

void RicianChannel::reset() { init_process(); }

void RicianChannel::save_state(StateWriter& w) const {
  w.f64(los_phase_);
  fading_.save(w);
}

void RicianChannel::load_state(StateReader& r) {
  los_phase_ = r.f64();
  fading_.load(r);
}

}  // namespace ofdm::rf::channels
