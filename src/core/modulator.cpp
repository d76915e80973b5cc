#include "core/modulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/window.hpp"

namespace ofdm::core {
namespace {

/// Build the full FFT-size frequency vector from data and pilot tone
/// values into `freq`, resizing it to p.fft_size, with Hermitian
/// mirroring when the configuration asks for a real output signal.
void assemble_spectrum(const OfdmParams& p, const ToneLayout& layout,
                       std::span<const cplx> data_values,
                       std::span<const cplx> pilot_values, cvec& freq) {
  OFDM_REQUIRE_DIM(data_values.size() == layout.data_bins.size(),
                   "Modulator::assemble: data value count mismatch");
  OFDM_REQUIRE_DIM(pilot_values.size() == layout.pilot_bins.size(),
                   "Modulator::assemble: pilot value count mismatch");
  freq.assign(p.fft_size, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < data_values.size(); ++i) {
    freq[layout.data_bins[i]] = data_values[i];
  }
  for (std::size_t i = 0; i < pilot_values.size(); ++i) {
    freq[layout.pilot_bins[i]] = pilot_values[i];
  }
  if (p.hermitian) {
    const std::size_t n = p.fft_size;
    for (std::size_t k = 1; k < n / 2; ++k) {
      freq[n - k] = std::conj(freq[k]);
    }
  }
}

}  // namespace

Modulator::Modulator(const OfdmParams& params, const ToneLayout& layout)
    : params_(params),
      layout_(layout),
      fft_(params.fft_size),
      ramp_(params.window_ramp > 0
                ? dsp::raised_cosine_ramp(params.window_ramp)
                : rvec{}) {
  // Unit average output power: the 1/N-scaled IFFT of a spectrum with
  // n_used unit-power tones has average power n_used/N^2.
  std::size_t used = layout_.used_tones();
  if (params_.hermitian) used *= 2;  // mirrored half carries equal power
  OFDM_REQUIRE(used > 0, "Modulator: no used tones");
  scale_ = static_cast<double>(params_.fft_size) /
           std::sqrt(static_cast<double>(used));
  body_.resize(params_.fft_size);
}

cvec Modulator::assemble(std::span<const cplx> data_values,
                         std::span<const cplx> pilot_values) const {
  cvec freq;
  assemble_spectrum(params_, layout_, data_values, pilot_values, freq);
  return freq;
}

void Modulator::emit(std::span<const cplx> freq_bins, cvec& out) {
  const std::size_t cp = params_.cp_len;
  const std::size_t ramp = params_.window_ramp;
  OFDM_REQUIRE_DIM(freq_bins.size() == params_.fft_size,
                   "Modulator::emit: frequency vector size mismatch");

  // The tone scale rides along inside the IFFT's own output pass; the
  // Hermitian (real-output) configurations take the half-size fast path.
  if (params_.hermitian) {
    fft_.inverse_hermitian(freq_bins, body_, scale_);
  } else {
    fft_.inverse(freq_bins, body_, scale_);
  }

  // Extended symbol, written straight into the output vector: cyclic
  // prefix + body. The cyclic suffix (ramp) never materializes in `out`;
  // it goes directly into the overlap-add tail below.
  const std::size_t start = out.size();
  out.insert(out.end(), body_.end() - static_cast<std::ptrdiff_t>(cp),
             body_.end());
  out.insert(out.end(), body_.begin(), body_.end());

  if (ramp > 0) {
    cplx* ext = out.data() + start;
    for (std::size_t i = 0; i < ramp; ++i) {
      ext[i] *= ramp_[i];                        // rising edge
    }
    // Overlap-add the previous symbol's suffix into our rising edge.
    for (std::size_t i = 0; i < tail_.size(); ++i) ext[i] += tail_[i];
    // Our own windowed suffix becomes the next symbol's tail.
    tail_.resize(ramp);
    for (std::size_t i = 0; i < ramp; ++i) {
      tail_[i] = body_[i] * (1.0 - ramp_[i]);    // falling edge (suffix)
    }
  }
}

void Modulator::modulate_symbol(std::span<const cplx> data_values,
                                std::span<const cplx> pilot_values,
                                cvec& out) {
  assemble_spectrum(params_, layout_, data_values, pilot_values, freq_);
  emit(freq_, out);
}

void Modulator::emit_silence(std::size_t n, cvec& out) {
  const std::size_t start = out.size();
  out.insert(out.end(), n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < tail_.size() && i < n; ++i) {
    out[start + i] += tail_[i];
  }
  tail_.clear();
}

void Modulator::emit_raw(std::span<const cplx> samples, cvec& out) {
  const std::size_t start = out.size();
  out.insert(out.end(), samples.begin(), samples.end());
  for (std::size_t i = 0; i < tail_.size() && i < samples.size(); ++i) {
    out[start + i] += tail_[i];
  }
  tail_.clear();
}

void Modulator::flush(cvec& out) {
  out.insert(out.end(), tail_.begin(), tail_.end());
  tail_.clear();
}

void Modulator::reset() { tail_.clear(); }

}  // namespace ofdm::core
