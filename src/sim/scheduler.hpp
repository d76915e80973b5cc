// Work-stealing task pool for the campaign engine.
//
// A campaign's unit of work is a trial batch, and batches are
// independent (an RF graph's block state forces stream order only
// inside one trial), so each worker owns a deque (LIFO for its own
// work, FIFO for thieves) and idle workers steal from the others. Determinism never depends on the
// schedule: tasks are pure functions of their indices and the campaign
// reduces their results in index order.
//
// Tasks may submit further tasks (a finished round schedules the next
// one). wait_idle() returns once every submitted task has completed;
// the first exception a task throws is captured and rethrown there.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ofdm::sim {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (clamped to >= 1).
  explicit WorkStealingPool(std::size_t threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueue a task: onto the calling worker's own deque when called
  /// from inside the pool, round-robin across workers otherwise.
  void submit(Task task);

  /// Block until every submitted task (including ones submitted by
  /// running tasks) has finished. Rethrows the first task exception.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

  /// Index in [0, thread_count()) of the calling thread when it is one
  /// of this pool's workers (e.g. inside a task), thread_count()
  /// otherwise. Lets tasks keep per-worker state without locking.
  std::size_t worker_index() const;

 private:
  struct Worker {
    std::mutex m;
    std::deque<Task> q;
  };

  bool try_get(std::size_t self, Task& out);
  void run_task(Task& task);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex cv_m_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t signal_ = 0;  // guarded by cv_m_; bumps on submit

  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> next_victim_{0};
  std::atomic<bool> stop_{false};

  std::mutex error_m_;
  std::exception_ptr first_error_;
};

}  // namespace ofdm::sim
