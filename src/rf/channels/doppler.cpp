#include "rf/channels/doppler.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm::rf::channels {

DopplerProcess::DopplerProcess(DopplerSpectrum spectrum, double power,
                               double doppler_rad,
                               std::size_t n_sinusoids, Rng& rng) {
  const bool jakes = spectrum == DopplerSpectrum::kJakes;
  OFDM_REQUIRE(power >= 0.0, "DopplerProcess: power must be non-negative");
  OFDM_REQUIRE(doppler_rad >= 0.0,
               "DopplerProcess: Doppler must be non-negative");
  OFDM_REQUIRE(n_sinusoids >= (jakes ? 4u : 8u),
               "DopplerProcess: need >= 4 (Jakes) / 8 (Gaussian) "
               "sinusoids for a Rayleigh-ish envelope");
  freq_.resize(n_sinusoids);
  phase_.resize(n_sinusoids);
  phase_q_.resize(n_sinusoids);
  const auto n_sin = static_cast<double>(n_sinusoids);
  for (std::size_t n = 0; n < n_sinusoids; ++n) {
    if (jakes) {
      const double alpha =
          (kTwoPi * (static_cast<double>(n) + 0.5)) / n_sin +
          rng.uniform(-0.1, 0.1);
      freq_[n] = doppler_rad * std::cos(alpha);
    } else {
      freq_[n] = doppler_rad * rng.gaussian();
      (void)rng.uniform();  // reserved draw, see header
    }
    phase_[n] = rng.uniform(0.0, kTwoPi);
    phase_q_[n] = rng.uniform(0.0, kTwoPi);
  }
  // I and Q each need variance power/2; a cos with amplitude a carries
  // a^2/2, so a = sqrt(power / n).
  amp_ = std::sqrt(power / n_sin);
}

cplx DopplerProcess::gain() const {
  double re = 0.0;
  double im = 0.0;
  for (std::size_t n = 0; n < freq_.size(); ++n) {
    re += std::cos(phase_[n]);
    im += std::cos(phase_q_[n]);
  }
  return {re * amp_, im * amp_};
}

void DopplerProcess::advance() {
  const simd::Kernels& k = simd::kernels();
  k.rvec_add(phase_.data(), freq_.data(), freq_.size());
  k.rvec_add(phase_q_.data(), freq_.data(), freq_.size());
}

double DopplerProcess::realized_sigma_rad() const {
  double sum2 = 0.0;
  for (double f : freq_) sum2 += f * f;
  return std::sqrt(sum2 / static_cast<double>(freq_.size()));
}

void DopplerProcess::save(StateWriter& w) const {
  w.vec_r(phase_);
  w.vec_r(phase_q_);
}

void DopplerProcess::load(StateReader& r) {
  rvec phase;
  rvec phase_q;
  r.vec_r(phase);
  r.vec_r(phase_q);
  if (phase.size() != freq_.size() || phase_q.size() != freq_.size()) {
    throw StateError(
        "DopplerProcess::load: sinusoid count mismatch");
  }
  phase_ = std::move(phase);
  phase_q_ = std::move(phase_q);
}

}  // namespace ofdm::rf::channels
