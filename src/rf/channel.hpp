// Transmission channel models: AWGN, tapped-delay-line multipath (radio)
// and a twisted-pair-like lowpass (the ADSL example's loop).
#pragma once

#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "rf/block.hpp"

namespace ofdm::rf {

/// Additive white Gaussian noise at a fixed noise power (total complex
/// variance). Use snr_to_noise_power() to derive it from a signal power.
class AwgnChannel : public Block {
 public:
  AwgnChannel(double noise_power, std::uint64_t seed = 303);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "awgn"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  double noise_power_;
  Rng rng_;
  std::uint64_t seed_;
};

/// Noise power for a target SNR (dB) given the signal power.
double snr_to_noise_power(double signal_power, double snr_db);

/// Static multipath: a complex FIR whose taps are the channel impulse
/// response. Factories below build common profiles.
class MultipathChannel : public Block {
 public:
  explicit MultipathChannel(cvec taps);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "multipath"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  const cvec& taps() const { return taps_; }

 private:
  cvec taps_;
  cvec history_;  // last `taps` inputs, chronological (oldest first)
  cvec window_;   // scratch: [taps-1 history | chunk]; grows once
};

/// Exponentially decaying power-delay profile with Rayleigh taps,
/// normalized to unit average power. `rms_delay_samples` sets the decay;
/// `n_taps` the length.
cvec exponential_pdp_taps(double rms_delay_samples, std::size_t n_taps,
                          std::uint64_t seed);

/// A crude twisted-pair loop: single-pole lowpass with the given -3 dB
/// frequency plus a flat attenuation — enough frequency selectivity to
/// drive the ADSL bit-loading example.
cvec twisted_pair_taps(double cutoff_norm, double attenuation_db,
                       std::size_t n_taps = 41);

}  // namespace ofdm::rf
