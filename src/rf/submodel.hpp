// The Submodel wrapper — the paper's key integration artifact.
//
// "The model was wrapped into an APLAC® Submodel, and in the RF system
//  simulation it appears as a signal source block that can be used in
//  traditional RF system simulations."
//
// Submodel wraps a configured Mother Model (core::Transmitter) so it
// presents the rf::Source interface: the RF designer pulls baseband
// samples and the wrapper keeps generating frames of pseudo-random
// payload, with a configurable inter-frame idle gap.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "rf/block.hpp"

namespace ofdm::rf {

class Submodel : public Source {
 public:
  /// Wrap a transmitter configuration. `gap_samples` of silence separate
  /// consecutive frames; payload bits come from a seeded PRNG stream.
  explicit Submodel(core::OfdmParams params, std::size_t gap_samples = 0,
                    std::uint64_t payload_seed = 1);

  /// Reconfigure to a different standard *in place* — the Mother Model
  /// reconfiguration exposed at the RF-simulator level. All streaming
  /// state is flushed (buffered samples from the previous standard, the
  /// frame/gap position, the frame counter) and the payload PRNG is
  /// reseeded, so the stream continues exactly as a freshly constructed
  /// Submodel of the new standard would start.
  void configure(core::OfdmParams params);

  const core::OfdmParams& params() const { return tx_.params(); }
  core::Transmitter& transmitter() { return tx_; }

  /// Total frames generated so far.
  std::size_t frames_generated() const { return frames_; }

  using Source::pull;
  void pull(std::size_t n, cvec& out) override;
  void reset() override;
  std::string name() const override;

  /// Checkpoint/restore: captures the payload PRNG, the buffered frame
  /// tail and read position, and the frame counter.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  void refill();

  core::Transmitter tx_;
  std::size_t gap_samples_;
  Rng rng_;
  std::uint64_t payload_seed_;
  cvec buffer_;
  std::size_t read_pos_ = 0;
  std::size_t frames_ = 0;
};

/// A plain complex exponential source (test/calibration tone).
class ToneSource : public Source {
 public:
  ToneSource(double freq_hz, double sample_rate, double amplitude = 1.0);

  using Source::pull;
  void pull(std::size_t n, cvec& out) override;
  void reset() override;
  std::string name() const override { return "tone"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  double phase_step_;
  double amplitude_;
  double phase_ = 0.0;
};

}  // namespace ofdm::rf
