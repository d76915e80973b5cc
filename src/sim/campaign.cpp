#include "sim/campaign.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "common/error.hpp"
#include "sim/checkpoint.hpp"
#include "sim/scheduler.hpp"
#include "sim/trial.hpp"

namespace ofdm::sim {

namespace {

/// One in-flight round of trials for a point. `results` is indexed by
/// trial offset within the round, so the reduction can run in trial
/// order regardless of which worker finished which batch when.
struct Round {
  std::size_t point = 0;
  std::size_t first_trial = 0;
  std::vector<TrialResult> results;
  std::atomic<std::size_t> remaining_tasks{0};
  /// Set when any batch of the round stopped early on a cancel/deadline
  /// request. An abandoned round is discarded wholesale: its partial
  /// results never reach the point counters, so the checkpoint stays at
  /// the previous round boundary and a resume recomputes the identical
  /// round from scratch.
  std::atomic<bool> abandoned{false};
};

struct Driver {
  const ScenarioDeck& deck;
  const std::vector<PointSpec>& grid;
  const RunOptions& opts;
  WorkStealingPool& pool;
  std::vector<PointState>& states;

  std::mutex m;  // guards states, rounds_completed, halted, progress
  std::size_t rounds_completed = 0;
  std::size_t points_done = 0;
  std::size_t trials_done = 0;  ///< trials reduced by THIS run
  bool halted = false;

  /// One warm LinkRunner per worker, touched only by that worker. A
  /// task reuses it when it is for the runner's point, so a worker
  /// draining a point's batches builds one runner, not one per batch.
  /// A trial reads nothing a previous trial left in the runner, so
  /// which runner serves a batch changes no result.
  struct RunnerSlot {
    std::size_t point = 0;
    std::optional<LinkRunner> runner;
  };
  std::vector<RunnerSlot> runners;

  LinkRunner& runner_for(std::size_t point) {
    RunnerSlot& slot = runners[pool.worker_index()];
    if (!slot.runner || slot.point != point) {
      slot.runner.emplace(deck, grid[point]);
      slot.point = point;
    }
    return *slot.runner;
  }

  bool stop_requested() const {
    return opts.cancel != nullptr && opts.cancel->stop_requested();
  }

  // Call at startup (single-threaded) or from complete_round() under m.
  void schedule_round(std::size_t point) {
    const std::size_t target = next_round_target(deck, states[point]);
    const std::size_t n = target - states[point].trials;
    auto round = std::make_shared<Round>();
    round->point = point;
    round->first_trial = states[point].trials;
    round->results.resize(n);
    const std::size_t batch = deck.batch_trials;
    const std::size_t n_tasks = (n + batch - 1) / batch;
    round->remaining_tasks.store(n_tasks, std::memory_order_relaxed);
    for (std::size_t t = 0; t < n_tasks; ++t) {
      const std::size_t a = t * batch;
      const std::size_t b = std::min(a + batch, n);
      pool.submit([this, round, a, b] {
        if (stop_requested()) {
          // Drain fast: skip the whole batch, the round is abandoned.
          round->abandoned.store(true, std::memory_order_release);
        } else {
          const std::size_t done = runner_for(round->point).run_trials(
              round->first_trial + a,
              std::span<TrialResult>(round->results).subspan(a, b - a),
              opts.cancel);
          if (done < b - a) {
            round->abandoned.store(true, std::memory_order_release);
          }
        }
        if (round->remaining_tasks.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          complete_round(*round);
        }
      });
    }
  }

  void complete_round(const Round& round) {
    std::lock_guard<std::mutex> lk(m);
    if (round.abandoned.load(std::memory_order_acquire) ||
        stop_requested()) {
      // The round never happened as far as the counters are concerned;
      // the last checkpoint on disk already describes this state.
      halted = true;
      return;
    }
    PointState& st = states[round.point];
    for (const TrialResult& t : round.results) st.accumulate(t);
    evaluate_stop(deck, st);
    ++rounds_completed;
    trials_done += round.results.size();
    if (st.done) ++points_done;
    if (opts.halt_after_rounds > 0 &&
        rounds_completed >= opts.halt_after_rounds) {
      halted = true;
    }
    if (!opts.checkpoint_path.empty()) {
      write_checkpoint_file(opts.checkpoint_path,
                            save_checkpoint(deck, states));
    }
    if (opts.on_round) {
      opts.on_round(rounds_completed, points_done, trials_done);
    }
    if (!st.done && !halted) schedule_round(round.point);
  }
};

}  // namespace

Campaign::Campaign(ScenarioDeck deck)
    : deck_(std::move(deck)), grid_(expand_grid(deck_)) {
  OFDM_REQUIRE(!grid_.empty(), "sim: scenario deck expands to no points");
}

CampaignResult Campaign::run(const RunOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<PointState> states(grid_.size());
  if (opts.resume && !opts.checkpoint_path.empty()) {
    std::FILE* probe = std::fopen(opts.checkpoint_path.c_str(), "rb");
    if (probe) {
      std::fclose(probe);
      load_checkpoint(read_checkpoint_file(opts.checkpoint_path), deck_,
                      states);
    }
  }

  WorkStealingPool pool(opts.threads);
  Driver driver{deck_, grid_, opts, pool, states, {}, 0, 0, 0, false, {}};
  driver.runners.resize(pool.thread_count());
  for (const PointSpec& p : grid_) {
    if (!states[p.index].done) driver.schedule_round(p.index);
  }
  pool.wait_idle();

  // Final checkpoint so a completed (or halted-with-no-rounds) run
  // leaves a consistent file even if no round completed after resume.
  if (!opts.checkpoint_path.empty()) {
    write_checkpoint_file(opts.checkpoint_path,
                          save_checkpoint(deck_, states));
  }

  CampaignResult result;
  result.points.reserve(grid_.size());
  for (const PointSpec& p : grid_) {
    PointResult pr;
    pr.spec = p;
    pr.standard = deck_.standards[p.standard_index].token;
    pr.channel = deck_.channels[p.channel_index].token;
    pr.rx = deck_.rx_modes[p.rx_index].token;
    pr.state = states[p.index];
    result.points.push_back(std::move(pr));
  }
  result.rounds_completed = driver.rounds_completed;
  result.halted = driver.halted;
  if (opts.cancel != nullptr) {
    result.cancelled = opts.cancel->cancelled();
    result.deadline_expired =
        !result.cancelled && opts.cancel->deadline_expired();
    // A stop that lands after the last round completed still counts as
    // a halt: callers must treat the run as interrupted, not finished.
    if (result.cancelled || result.deadline_expired) result.halted = true;
  }
  result.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  return result;
}

}  // namespace ofdm::sim
