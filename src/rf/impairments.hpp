// Quadrature impairments: IQ gain/phase imbalance, DC offset (LO
// leakage) and a phase-noise block that rotates the signal by a free-
// running noisy LO; plus powerline-style impulsive noise, so powerline
// (HomePlug) co-simulations see their characteristic impairment.
#pragma once

#include "common/rng.hpp"
#include "rf/block.hpp"
#include "rf/frontend.hpp"

namespace ofdm::rf {

/// IQ imbalance: out = μ x + ν conj(x) with
/// μ = (1 + g e^{jφ})/2, ν = (1 - g e^{jφ})/2 for gain ratio g and
/// phase error φ — the standard image-leakage model.
class IqImbalance : public Block {
 public:
  IqImbalance(double gain_error_db, double phase_error_deg);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  std::string name() const override { return "iq-imbalance"; }

  /// Image rejection ratio implied by the parameters, dB.
  double image_rejection_db() const;

 private:
  cplx mu_;
  cplx nu_;
};

/// Additive DC offset (carrier leakage at baseband).
class DcOffset : public Block {
 public:
  explicit DcOffset(cplx offset);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  std::string name() const override { return "dc-offset"; }

 private:
  cplx offset_;
};

/// Multiplicative phase noise: rotates the stream by a zero-frequency
/// oscillator carrying only the Wiener phase-noise process.
class PhaseNoise : public Block {
 public:
  PhaseNoise(double linewidth_hz, double sample_rate,
             std::uint64_t seed = 101);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "phase-noise"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

 private:
  Oscillator lo_;
};

/// Powerline/impulsive noise: a Bernoulli process starts bursts of
/// geometrically distributed length during which strong white noise is
/// added (Middleton-class-A flavoured, two-state).
class ImpulseNoise : public Block {
 public:
  /// `burst_rate` = burst starts per sample (e.g. 1e-5), `mean_len` =
  /// mean burst length in samples, `impulse_power` = noise power while
  /// a burst is active.
  ImpulseNoise(double burst_rate, double mean_len, double impulse_power,
               std::uint64_t seed = 555);

  using Block::process;
  void process(std::span<const cplx> in, cvec& out) override;
  void reset() override;
  std::string name() const override { return "impulse-noise"; }

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  std::size_t bursts_seen() const { return bursts_; }

 private:
  double burst_rate_;
  double continue_prob_;
  double impulse_power_;
  Rng rng_;
  std::uint64_t seed_;
  std::size_t remaining_ = 0;
  std::size_t bursts_ = 0;
};

}  // namespace ofdm::rf
