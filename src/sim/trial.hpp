// The link a campaign measures, one grid point at a time: Mother-Model
// TX -> RF chain (optional PA / phase noise, channel preset, AWGN at
// the point's SNR) -> reference receiver -> BER/EVM counters.
//
// A LinkRunner is built per (point, worker task); each trial of
// run_trials() is a pure function of (campaign_seed, point_index,
// trial_index) — payload bits and every stochastic block seed derive
// from Rng::substream — so the same trial computed by any worker, in
// any order, after any resume, contributes identical counts.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/transmitter.hpp"
#include "sim/cancel.hpp"
#include "sim/deck.hpp"
#include "sim/estimator.hpp"

namespace ofdm::sim {

class LinkRunner {
 public:
  LinkRunner(const ScenarioDeck& deck, const PointSpec& point);
  ~LinkRunner();
  LinkRunner(LinkRunner&&) noexcept;
  LinkRunner& operator=(LinkRunner&&) noexcept;

  /// Run `results.size()` consecutive Monte-Carlo trials starting at
  /// `first_trial`, reusing the runner's burst and chunk buffers across
  /// the batch; TrialResult::seconds is filled with each trial's wall
  /// time. results[i] depends only on first_trial + i, never on the
  /// batch it ran in. When `cancel` is non-null it is polled between
  /// trials; on a stop request the batch returns early and only the
  /// first `return value` entries of `results` are valid (the caller
  /// discards the batch).
  std::size_t run_trials(std::size_t first_trial,
                         std::span<TrialResult> results,
                         const CancelToken* cancel = nullptr);

  /// Payload bits per trial after resolving the deck's payload_bits=0
  /// ("recommended") default for this point's standard.
  std::size_t payload_bits() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ofdm::sim
