#include "sim/scheduler.hpp"

namespace ofdm::sim {

namespace {
// Identity of the worker thread currently inside a pool, so submit()
// can prefer the local deque. (index + 1; 0 = not a pool thread.)
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;
}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lk(cv_m_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t WorkStealingPool::worker_index() const {
  return tls_pool == this ? tls_index - 1 : workers_.size();
}

void WorkStealingPool::submit(Task task) {
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  std::size_t slot;
  if (tls_pool == this) {
    slot = worker_index();  // local deque: depth-first, cache-warm
  } else {
    slot = next_victim_.fetch_add(1, std::memory_order_relaxed) %
           workers_.size();
  }
  {
    std::lock_guard<std::mutex> lk(workers_[slot]->m);
    workers_[slot]->q.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lk(cv_m_);
    ++signal_;
  }
  work_cv_.notify_one();
}

bool WorkStealingPool::try_get(std::size_t self, Task& out) {
  {
    // Own deque, newest first.
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lk(w.m);
    if (!w.q.empty()) {
      out = std::move(w.q.back());
      w.q.pop_back();
      return true;
    }
  }
  // Steal oldest-first from the others.
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& v = *workers_[(self + k) % workers_.size()];
    std::lock_guard<std::mutex> lk(v.m);
    if (!v.q.empty()) {
      out = std::move(v.q.front());
      v.q.pop_front();
      return true;
    }
  }
  return false;
}

void WorkStealingPool::run_task(Task& task) {
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lk(error_m_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lk(cv_m_);
    idle_cv_.notify_all();
  }
}

void WorkStealingPool::worker_loop(std::size_t self) {
  tls_pool = this;
  tls_index = self + 1;
  Task task;
  while (true) {
    if (try_get(self, task)) {
      run_task(task);
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lk(cv_m_);
    const std::uint64_t seen = signal_;
    lk.unlock();
    // One more scan after recording the signal generation: a submit
    // between the failed scan and the wait bumps `signal_` and the
    // wait predicate falls through.
    if (try_get(self, task)) {
      run_task(task);
      task = nullptr;
      continue;
    }
    lk.lock();
    if (stop_.load(std::memory_order_relaxed)) return;
    work_cv_.wait(lk, [this, seen] {
      return stop_.load(std::memory_order_relaxed) || signal_ != seen;
    });
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void WorkStealingPool::wait_idle() {
  {
    std::unique_lock<std::mutex> lk(cv_m_);
    idle_cv_.wait(lk, [this] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(error_m_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace ofdm::sim
