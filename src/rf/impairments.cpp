#include "rf/impairments.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/serial.hpp"

namespace ofdm::rf {

IqImbalance::IqImbalance(double gain_error_db, double phase_error_deg) {
  const double g = std::sqrt(from_db(gain_error_db));
  const double phi = phase_error_deg * kPi / 180.0;
  const cplx ge{g * std::cos(phi), g * std::sin(phi)};
  mu_ = (1.0 + ge) / 2.0;
  nu_ = (1.0 - ge) / 2.0;
}

void IqImbalance::process(std::span<const cplx> in, cvec& out) {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = mu_ * in[i] + nu_ * std::conj(in[i]);
  }
}

double IqImbalance::image_rejection_db() const {
  return to_db(std::norm(mu_) / std::norm(nu_));
}

DcOffset::DcOffset(cplx offset) : offset_(offset) {}

void DcOffset::process(std::span<const cplx> in, cvec& out) {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] + offset_;
}

PhaseNoise::PhaseNoise(double linewidth_hz, double sample_rate,
                       std::uint64_t seed)
    : lo_(0.0, sample_rate, 0.0, linewidth_hz, seed) {}

void PhaseNoise::process(std::span<const cplx> in, cvec& out) {
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] * lo_.next();
}

void PhaseNoise::reset() { lo_.reset(); }

void PhaseNoise::save_state(StateWriter& w) const { lo_.save(w); }

void PhaseNoise::load_state(StateReader& r) { lo_.load(r); }

ImpulseNoise::ImpulseNoise(double burst_rate, double mean_len,
                           double impulse_power, std::uint64_t seed)
    : burst_rate_(burst_rate),
      continue_prob_(mean_len > 1.0 ? 1.0 - 1.0 / mean_len : 0.0),
      impulse_power_(impulse_power),
      rng_(seed),
      seed_(seed) {
  OFDM_REQUIRE(burst_rate >= 0.0 && burst_rate <= 1.0,
               "ImpulseNoise: burst rate must be a probability");
  OFDM_REQUIRE(impulse_power >= 0.0,
               "ImpulseNoise: impulse power must be non-negative");
}

void ImpulseNoise::process(std::span<const cplx> in, cvec& out) {
  if (out.data() != in.data()) out.assign(in.begin(), in.end());
  for (cplx& v : out) {
    if (remaining_ == 0 && rng_.uniform() < burst_rate_) {
      ++bursts_;
      remaining_ = 1;
      // Geometric burst length.
      while (rng_.uniform() < continue_prob_) ++remaining_;
    }
    if (remaining_ > 0) {
      v += rng_.complex_gaussian(impulse_power_);
      --remaining_;
    }
  }
}

void ImpulseNoise::reset() {
  rng_ = Rng(seed_);
  remaining_ = 0;
  bursts_ = 0;
}

void ImpulseNoise::save_state(StateWriter& w) const {
  rng_.save(w);
  w.u64(remaining_);
  w.u64(bursts_);
}

void ImpulseNoise::load_state(StateReader& r) {
  rng_.load(r);
  remaining_ = r.u64();
  bursts_ = r.u64();
}

}  // namespace ofdm::rf
