// Scoped tracer with a fixed-capacity ring of span records.
//
// One process-wide Tracer instance collects {name, thread, start, dur}
// spans from anywhere in the datapath: Transmitter::modulate and each
// observed Chain/Netlist block call. Recording is lock-free (one
// fetch_add into a preallocated ring) and allocation-free; when the ring
// wraps, the oldest spans are overwritten — a trace is a window onto the
// tail of a run, which is the steady state you want to look at anyway.
//
// Zero overhead when off: an emitting site performs one relaxed atomic
// load and skips both clock reads. Span names must be string literals
// or intern()ed: a span outlives the object that recorded it (a traced
// campaign builds and drops one rf::Chain per trial).
//
// Export is Chrome-trace JSON ("chrome://tracing" / Perfetto "X" phase
// events), so a capture drops straight into the standard viewers.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ofdm::obs {

struct TraceEvent {
  const char* name = nullptr;  ///< not owned; must outlive the snapshot
  std::uint32_t tid = 0;       ///< small dense thread index
  std::uint64_t start_ns = 0;  ///< steady-clock timestamp
  std::uint64_t dur_ns = 0;
};

class Tracer {
 public:
  /// The process-wide tracer every instrumented site reports to.
  static Tracer& instance();

  /// Start capturing with a ring of `capacity` spans. Allocates the ring
  /// up front; re-enabling clears previous events.
  void enable(std::size_t capacity = 1u << 16);

  /// Stop capturing. Already-recorded events remain snapshot-able.
  void disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record one completed span. Safe from any thread while enabled.
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  /// Copy out the captured events, oldest first. If the ring wrapped,
  /// only the most recent `capacity` spans survive.
  std::vector<TraceEvent> snapshot() const;

  /// Spans recorded since enable() (including any overwritten ones).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Drop captured events, keeping the capture enabled/disabled state.
  void clear();

  /// Write the capture as Chrome trace JSON (an object with a
  /// "traceEvents" array of "ph":"X" duration events).
  void write_chrome_trace(std::ostream& os) const;

  /// Convenience: write_chrome_trace to a file; false on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

  /// Monotonic nanosecond timestamp (steady clock).
  static std::uint64_t now_ns();

  /// Dense id of the calling thread (0 = first thread that asked).
  static std::uint32_t thread_index();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> head_{0};  // total spans ever recorded
  std::vector<TraceEvent> ring_;
  mutable std::mutex control_;  // guards enable/disable/snapshot/clear
};

/// A copy of `name` that lives until the process exits; equal names
/// share one pointer. Thread-safe. For span names that come from an
/// object (Block::name()) rather than a string literal.
const char* intern(std::string_view name);

/// RAII span: times the enclosing scope and reports it on destruction.
/// When the tracer is disabled the constructor is one atomic load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    if (Tracer::instance().enabled()) start_ = Tracer::now_ns();
  }
  ~ScopedSpan() {
    if (start_ != 0) {
      Tracer::instance().record(name_, start_, Tracer::now_ns() - start_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ = 0;
};

}  // namespace ofdm::obs
