// The Monte-Carlo campaign engine: scenario deck -> job matrix ->
// parallel BER/EVM link sweeps with early stopping and
// checkpoint/resume.
//
// Execution model: each grid point advances in *rounds* (min_trials
// first, then batch_trials at a time). A round's trials are split into
// batch tasks on the work-stealing pool; the last batch to finish
// reduces the round's results IN TRIAL ORDER into the point's counters,
// evaluates the early-stop rule, checkpoints, and schedules the point's
// next round. Trials are pure functions of (seed, point, trial)
// (Rng::substream), reduction order is fixed, and stop decisions happen
// only at round boundaries — so every estimate is bit-identical for any
// thread count and across any checkpoint/resume cut.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/cancel.hpp"
#include "sim/deck.hpp"
#include "sim/estimator.hpp"

namespace ofdm::sim {

struct RunOptions {
  std::size_t threads = 1;
  /// Checkpoint file maintained at every round boundary (atomic
  /// temp+rename); empty disables checkpointing.
  std::string checkpoint_path;
  /// Load checkpoint_path before running (missing file = fresh start).
  bool resume = false;
  /// Testing/CI kill switch: stop scheduling new rounds once this many
  /// rounds have completed, drain, checkpoint and return with
  /// CampaignResult::halted set. 0 = run to completion.
  std::size_t halt_after_rounds = 0;
  /// Cooperative stop: polled between trials and at round boundaries.
  /// A stopped run drains like halt_after_rounds (in-flight rounds are
  /// abandoned, the checkpoint stays at the last completed boundary)
  /// and returns with halted + cancelled/deadline_expired set. The
  /// token must outlive run(). nullptr = never stops early.
  const CancelToken* cancel = nullptr;
  /// Progress hook, invoked after every completed round (and its
  /// checkpoint write) under the driver lock with cumulative counters
  /// for THIS run: rounds completed, grid points finished, trials
  /// reduced. Keep it cheap — it serializes round completion.
  std::function<void(std::size_t rounds, std::size_t points_done,
                     std::size_t trials)>
      on_round;
};

/// One finished (or halted) grid point with its resolved labels.
struct PointResult {
  PointSpec spec;
  std::string standard;  ///< deck token, e.g. "wlan_80211a@24"
  std::string channel;   ///< preset token, e.g. "awgn"
  std::string rx;        ///< rx-mode token, "coded" or "uncoded"
  PointState state;
};

struct CampaignResult {
  std::vector<PointResult> points;  ///< grid order
  double elapsed_seconds = 0.0;
  std::size_t rounds_completed = 0;
  /// Stopped before every point finished (halt_after_rounds, a
  /// cancelled token, or an expired deadline). The checkpoint on disk
  /// is consistent; resuming completes the sweep bit-identically.
  bool halted = false;
  bool cancelled = false;         ///< RunOptions::cancel was cancelled
  bool deadline_expired = false;  ///< RunOptions::cancel deadline passed
};

class Campaign {
 public:
  explicit Campaign(ScenarioDeck deck);

  const ScenarioDeck& deck() const { return deck_; }
  const std::vector<PointSpec>& grid() const { return grid_; }

  /// Run (or resume) the campaign. Throws the first trial error, or
  /// ofdm::StateError on a checkpoint mismatch.
  CampaignResult run(const RunOptions& opts = {});

 private:
  ScenarioDeck deck_;
  std::vector<PointSpec> grid_;
};

}  // namespace ofdm::sim
