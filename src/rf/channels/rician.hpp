// Rician K-factor fading line: a fixed line-of-sight component plus a
// Gaussian-Doppler Rayleigh diffuse component, power-normalized so
// E[|g|^2] = 1 for any K. K -> 0 degenerates to flat Rayleigh fading,
// K -> inf to a static phase rotation.
#pragma once

#include "rf/block.hpp"
#include "rf/channels/doppler.hpp"

namespace ofdm::rf::channels {

class RicianChannel : public Block {
 public:
  /// `k_factor`: linear LOS/diffuse power ratio (K). `doppler_spread_hz`
  /// is the two-sided Gaussian Doppler spread of the diffuse part;
  /// `los_doppler_hz` optionally shifts the LOS line (0 keeps it
  /// static, which is what the moment-based K estimators assume).
  RicianChannel(double k_factor, double doppler_spread_hz,
                double sample_rate, std::uint64_t seed = 3030,
                double los_doppler_hz = 0.0,
                std::size_t n_sinusoids = 32);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "rician"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Instantaneous channel gain at the current stream position.
  cplx current_gain() const;

  double k_factor() const { return k_; }

 private:
  void init_process();

  double k_;
  double los_amp_;        // sqrt(K / (K + 1))
  double diffuse_power_;  // 1 / (K + 1)
  double los_step_;       // rad/sample of the LOS line
  double doppler_spread_hz_;
  double sample_rate_;
  std::uint64_t seed_;
  std::size_t n_sinusoids_;
  double los_phase_ = 0.0;   // evolving LOS phase (incl. initial draw)
  double los_phase0_ = 0.0;  // seed-derived initial phase
  DopplerProcess fading_;
};

}  // namespace ofdm::rf::channels
