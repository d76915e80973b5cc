// Discrete-path fading channel: a tapped delay line whose every path
// is an independent sum-of-sinusoids Rayleigh process (doppler.hpp).
// With the Gaussian Doppler spectrum it is the Watterson HF
// ionospheric channel (Watterson et al., "Experimental confirmation of
// an HF channel model", IEEE Trans. Comm. 1970), with the CCIR 520 /
// ITU-R F.1487 two-path reference conditions Good / Moderate / Poor /
// Flutter used by every HF modem standard; with the Jakes spectrum it
// is the classic mobile Rayleigh fader (DAB/DVB-T vehicles).
#pragma once

#include <memory>
#include <vector>

#include "rf/block.hpp"
#include "rf/channels/doppler.hpp"

namespace ofdm::rf::channels {

/// One fading path: a delay and an average power; the path gain is a
/// Rayleigh process of that power.
struct WattersonPath {
  std::size_t delay_samples = 0;
  double power = 1.0;  ///< average path power (linear)
};

class WattersonChannel : public Block {
 public:
  /// `doppler_hz` follows the spectrum: for kGaussian it is the ITU-R
  /// F.1487 two-sided frequency spread (2 sigma of the Gaussian
  /// spectrum), for kJakes the maximum Doppler fd. One Rng(seed) draws
  /// every path's process, in path order.
  WattersonChannel(std::vector<WattersonPath> paths,
                   DopplerSpectrum spectrum, double doppler_hz,
                   double sample_rate, std::uint64_t seed = 2020,
                   std::size_t n_sinusoids = 32);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  /// "watterson" (Gaussian) or "fading" (Jakes): snapshot frames and
  /// per-block reports key on it.
  std::string name() const override {
    return spectrum_ == DopplerSpectrum::kJakes ? "fading" : "watterson";
  }

  /// Checkpoint the sinusoid phases and the delay line; frequencies
  /// are derived from the seed at construction.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  std::size_t n_paths() const { return paths_.size(); }
  double doppler_hz() const { return doppler_hz_; }

  /// Doppler width (Hz, as a spread = 2 x RMS frequency) the finite
  /// sum-of-sinusoids realization of `path` actually carries.
  double realized_spread_hz(std::size_t path) const;

 private:
  struct Path {
    WattersonPath path;
    DopplerProcess fading;
  };

  void init_processes();

  std::vector<Path> paths_;
  std::size_t max_delay_ = 0;
  cvec delay_line_;
  std::size_t head_ = 0;
  DopplerSpectrum spectrum_;
  std::uint64_t seed_;
  std::size_t n_sinusoids_;
  double doppler_hz_;
  double sample_rate_;
};

/// CCIR 520 / ITU-R F.1487 reference ionospheric conditions: two
/// equal-power Rayleigh paths separated by `delay_ms`, both with
/// Gaussian Doppler spread `doppler_spread_hz`.
enum class CcirCondition { kGood, kModerate, kPoor, kFlutter };

struct WattersonPreset {
  const char* name;          ///< deck token ("ccir_poor", ...)
  double delay_ms;           ///< differential path delay
  double doppler_spread_hz;  ///< two-sided frequency spread
};

const WattersonPreset& watterson_preset(CcirCondition c);

/// Build the two-path reference channel at `sample_rate`, total
/// average power normalized to 1 (0.5 per path).
std::unique_ptr<WattersonChannel> make_watterson(
    CcirCondition c, double sample_rate, std::uint64_t seed = 2020,
    double doppler_scale = 1.0);

}  // namespace ofdm::rf::channels
