// Sum-of-sinusoids Rayleigh fading process — the building block of
// every time-varying fader in this library: the Watterson/Jakes path
// fader and the diffuse part of the Rician lines.
//
// I and Q branches are independent sums of `n_sinusoids` equal-
// amplitude sinusoids. The Doppler spectrum is chosen only by how the
// sinusoid frequencies are drawn:
//   - kGaussian: frequencies from N(0, sigma_rad). The density the
//     frequencies are drawn from IS the resulting Doppler power
//     spectrum, so the realized spectrum approximates the Gaussian
//     shape of ITU-R F.1487 without any filtering state.
//   - kJakes: arrival angles spread evenly over the circle with a
//     small random offset, frequency = fd * cos(angle) — the classic
//     U-shaped Clarke/Jakes spectrum of maximum Doppler fd.
// Everything is derived from the Rng handed to the constructor, so a
// process is a pure function of its seed: reproducible, snapshot-able
// (only the phases evolve while streaming) and chunking-invariant by
// construction.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ofdm {
class StateWriter;
class StateReader;
}  // namespace ofdm

namespace ofdm::rf::channels {

enum class DopplerSpectrum { kGaussian, kJakes };

class DopplerProcess {
 public:
  DopplerProcess() = default;

  /// `power` = E[|g|^2] of the process. `doppler_rad` is in rad/sample:
  /// the standard deviation sigma for kGaussian, the maximum Doppler fd
  /// for kJakes. Frequencies and initial phases are drawn from `rng`:
  ///   - kGaussian, 4 draws per sinusoid in order: frequency, unused
  ///     spare, phase_i, phase_q (the spare keeps the draw count per
  ///     sinusoid stable if the model grows a term); needs >= 8
  ///     sinusoids.
  ///   - kJakes, 3 draws per sinusoid in order: angle offset
  ///     U(-0.1, 0.1) around 2 pi (n + 1/2) / N, phase_i, phase_q;
  ///     needs >= 4 sinusoids.
  DopplerProcess(DopplerSpectrum spectrum, double power,
                 double doppler_rad, std::size_t n_sinusoids, Rng& rng);

  /// Complex gain at the current stream position.
  cplx gain() const;

  /// Advance one sample: every sinusoid phase steps by its frequency.
  void advance();

  /// RMS (rad/sample) of the realized sinusoid frequencies — the
  /// Doppler width this finite realization actually carries
  /// (kGaussian: converges to sigma_rad; kJakes: to fd / sqrt(2)).
  double realized_sigma_rad() const;

  /// Realized sinusoid frequencies, rad/sample.
  const rvec& frequencies() const { return freq_; }

  /// Checkpoint only the evolving state (the phases); frequencies are
  /// re-derived from the seed at construction.
  void save(StateWriter& w) const;
  void load(StateReader& r);

 private:
  rvec freq_;     // rad/sample per sinusoid
  rvec phase_;    // I branch
  rvec phase_q_;  // Q branch
  double amp_ = 0.0;  // sqrt(power / n_sinusoids) per branch
};

}  // namespace ofdm::rf::channels
