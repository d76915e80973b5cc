#include "rf/channels/watterson.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf::channels {

WattersonChannel::WattersonChannel(std::vector<WattersonPath> paths,
                                   DopplerSpectrum spectrum,
                                   double doppler_hz, double sample_rate,
                                   std::uint64_t seed,
                                   std::size_t n_sinusoids)
    : spectrum_(spectrum),
      seed_(seed),
      n_sinusoids_(n_sinusoids),
      doppler_hz_(doppler_hz),
      sample_rate_(sample_rate) {
  OFDM_REQUIRE(!paths.empty(), "WattersonChannel: need at least one path");
  OFDM_REQUIRE(doppler_hz >= 0.0 && sample_rate > 0.0,
               "WattersonChannel: invalid Doppler/sample rate");
  for (const WattersonPath& p : paths) {
    Path path;
    path.path = p;
    paths_.push_back(std::move(path));
    max_delay_ = std::max(max_delay_, p.delay_samples);
  }
  delay_line_.assign(max_delay_ + 1, cplx{0.0, 0.0});
  init_processes();
}

void WattersonChannel::init_processes() {
  Rng rng(seed_);
  // The ITU "frequency spread" is two-sided: 2 sigma of the Gaussian
  // spectrum. Jakes takes the maximum Doppler as is.
  const double doppler_rad =
      spectrum_ == DopplerSpectrum::kJakes
          ? kTwoPi * doppler_hz_ / sample_rate_
          : kTwoPi * (doppler_hz_ / 2.0) / sample_rate_;
  for (Path& p : paths_) {
    p.fading = DopplerProcess(spectrum_, p.path.power, doppler_rad,
                              n_sinusoids_, rng);
  }
}

double WattersonChannel::realized_spread_hz(std::size_t path) const {
  const double sigma_rad = paths_.at(path).fading.realized_sigma_rad();
  return 2.0 * sigma_rad * sample_rate_ / kTwoPi;
}

void WattersonChannel::process(std::span<const cplx> in, cvec& out) {
  const std::size_t line = delay_line_.size();
  out.resize(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    head_ = (head_ + line - 1) % line;
    delay_line_[head_] = in[i];
    cplx acc{0.0, 0.0};
    for (const Path& p : paths_) {
      const cplx x = delay_line_[(head_ + p.path.delay_samples) % line];
      // Live-path rule: a path reading an exact zero (either sign, both
      // parts) skips its gain. The gain is finite (|cos| <= 1, finite
      // amplitude), so x * gain is a pair of signed zeros, and dropping
      // it leaves acc's bits unchanged: each part of acc starts at +0,
      // v + (+-0) == v for every non-zero v and +0 + (+-0) == +0, so a
      // part never becomes -0 and no +-0 term can move it. advance()
      // below still runs for every path, so the phases and snapshots
      // are untouched. A zero-primed echo beyond the burst (ccir_poor's
      // 2 ms path) costs only its phase advance.
      if (x.real() == 0.0 && x.imag() == 0.0) continue;
      acc += x * p.fading.gain();
    }
    out[i] = acc;
    for (Path& p : paths_) p.fading.advance();
  }
}

void WattersonChannel::reset() {
  std::fill(delay_line_.begin(), delay_line_.end(), cplx{0.0, 0.0});
  head_ = 0;
  init_processes();
}

void WattersonChannel::save_state(StateWriter& w) const {
  w.u64(paths_.size());
  for (const Path& p : paths_) p.fading.save(w);
  w.vec_c(delay_line_);
  w.u64(head_);
}

void WattersonChannel::load_state(StateReader& r) {
  const std::uint64_t n = r.u64();
  if (n != paths_.size()) {
    throw StateError("WattersonChannel::load_state: snapshot has " +
                     std::to_string(n) + " paths, channel has " +
                     std::to_string(paths_.size()));
  }
  for (Path& p : paths_) p.fading.load(r);
  cvec line;
  r.vec_c(line);
  if (line.size() != delay_line_.size()) {
    throw StateError(
        "WattersonChannel::load_state: delay-line length mismatch");
  }
  delay_line_ = std::move(line);
  head_ = r.u64();
}

const WattersonPreset& watterson_preset(CcirCondition c) {
  // ITU-R F.1487 table 1 / CCIR 520-2 reference conditions.
  static const WattersonPreset kPresets[] = {
      {"ccir_good", 0.5, 0.1},
      {"ccir_moderate", 1.0, 0.5},
      {"ccir_poor", 2.0, 1.0},
      {"ccir_flutter", 0.5, 10.0},
  };
  return kPresets[static_cast<std::size_t>(c)];
}

std::unique_ptr<WattersonChannel> make_watterson(CcirCondition c,
                                                 double sample_rate,
                                                 std::uint64_t seed,
                                                 double doppler_scale) {
  OFDM_REQUIRE(doppler_scale > 0.0,
               "make_watterson: doppler_scale must be positive");
  const WattersonPreset& p = watterson_preset(c);
  const auto delay = static_cast<std::size_t>(
      std::llround(p.delay_ms * 1e-3 * sample_rate));
  return std::make_unique<WattersonChannel>(
      std::vector<WattersonPath>{{0, 0.5}, {delay, 0.5}},
      DopplerSpectrum::kGaussian, p.doppler_spread_hz * doppler_scale,
      sample_rate, seed);
}

}  // namespace ofdm::rf::channels
