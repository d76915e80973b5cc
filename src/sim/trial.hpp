// The link a campaign measures, one grid point at a time: Mother-Model
// TX -> RF chain (optional PA / phase noise, channel preset, AWGN at
// the point's SNR) -> reference receiver -> BER/EVM counters.
//
// A campaign keeps one LinkRunner per worker and reuses it for that
// worker's next batch of the same point. Each trial of run_trials() is
// a pure function of (campaign_seed, point_index, trial_index) —
// payload bits and every stochastic block seed derive from
// Rng::substream — and reads nothing an earlier trial left in the
// runner's scratch, so the same trial computed by any worker, on a
// fresh or a warm runner, in any order, after any resume, contributes
// identical counts.
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
  /// `first_trial`, reusing the runner's trial scratch (payload, burst,
  /// received samples, every receiver stage, EVM tones) across the
  /// batch and across calls; TrialResult::seconds is filled with each
  /// trial's wall time. results[i] depends only on first_trial + i,
  /// never on the batch it ran in or the trials run before it. When
  /// `cancel` is non-null it is polled between trials; on a stop
  /// request the batch returns early and only the first `return value`
  /// entries of `results` are valid (the caller discards the batch).
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
