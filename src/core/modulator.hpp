// The OFDM symbol modulator: frequency-domain assembly, IFFT, cyclic
// prefix and raised-cosine edge windowing with overlap-add.
//
// Output scaling is chosen so the time-domain signal has unit average
// power independent of the configuration — convenient for the RF chain,
// whose operating point is then set purely by its own gain blocks.
//
// The hot path is allocation-free in steady state: the IFFT body and the
// window tail live in reusable member buffers, the cyclic extension is
// written straight into the caller's output vector, and Hermitian (real
// output) configurations take the half-size IFFT fast path.
#pragma once

#include <span>

#include "core/params.hpp"
#include "dsp/fft.hpp"

namespace ofdm::core {

class Modulator {
 public:
  Modulator(const OfdmParams& params, const ToneLayout& layout);

  /// Scale factor applied to the raw (1/N-normalized) IFFT output.
  double tone_scale() const { return scale_; }

  /// Build the full FFT-size frequency vector from data and pilot tone
  /// values (ascending logical-frequency order each). Applies Hermitian
  /// mirroring when the configuration asks for a real output signal.
  cvec assemble(std::span<const cplx> data_values,
                std::span<const cplx> pilot_values) const;

  /// Modulate one assembled frequency vector, appending exactly
  /// cp_len + fft_size samples to `out`.
  void emit(std::span<const cplx> freq_bins, cvec& out);

  /// assemble() + emit() without materializing a fresh frequency vector:
  /// the spectrum is built in a reusable member buffer. Bit-identical to
  /// the two-step path; this is the Transmitter's per-symbol path.
  void modulate_symbol(std::span<const cplx> data_values,
                       std::span<const cplx> pilot_values, cvec& out);

  /// Append n zero samples (DAB null symbol), overlap-adding any pending
  /// window tail.
  void emit_silence(std::size_t n, cvec& out);

  /// Append raw samples untouched (externally generated preambles) and
  /// clear the window tail.
  void emit_raw(std::span<const cplx> samples, cvec& out);

  /// Append the trailing window ramp (end of burst).
  void flush(cvec& out);

  /// Drop windowing state (new burst).
  void reset();

 private:
  const OfdmParams& params_;
  const ToneLayout& layout_;
  dsp::Fft fft_;
  double scale_;
  rvec ramp_;   // raised-cosine up-ramp, window_ramp samples
  cvec tail_;   // pending overlap from the previous symbol
  cvec body_;   // reusable IFFT output buffer
  cvec freq_;   // reusable spectrum buffer (modulate_symbol)
};

}  // namespace ofdm::core
