#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>
#include <set>

namespace ofdm::obs {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

const char* intern(std::string_view name) {
  static std::mutex mu;
  // Never destroyed, so the names stay valid through static teardown;
  // set nodes never move, so c_str() is stable across insertions.
  static auto* const table = new std::set<std::string, std::less<>>;
  std::lock_guard lk(mu);
  auto it = table->find(name);
  if (it == table->end()) it = table->emplace(name).first;
  return it->c_str();
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Tracer::thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::enable(std::size_t capacity) {
  std::lock_guard lk(control_);
  ring_.assign(std::max<std::size_t>(capacity, 1), TraceEvent{});
  head_.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() {
  std::lock_guard lk(control_);
  enabled_.store(false, std::memory_order_release);
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns) {
  if (!enabled()) return;
  const std::uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& e = ring_[slot % ring_.size()];
  e.name = name;
  e.tid = thread_index();
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::lock_guard lk(control_);
  const std::uint64_t total = head_.load(std::memory_order_relaxed);
  const std::size_t cap = ring_.size();
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(total, cap));
  std::vector<TraceEvent> out;
  out.reserve(n);
  // Oldest surviving span first. When wrapped, that is slot head % cap.
  const std::uint64_t first = total > cap ? total - cap : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    out.push_back(ring_[i % cap]);
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard lk(control_);
  head_.store(0, std::memory_order_relaxed);
}

namespace {
// Minimal JSON string escaping for span names.
void write_escaped(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}
}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) os << ",";
    first = false;
    // Chrome trace timestamps are microseconds; keep sub-us precision.
    os << "\n{\"name\":\"";
    write_escaped(os, e.name);
    os << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
       << ",\"ts\":" << static_cast<double>(e.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1e3 << "}";
  }
  os << "\n]}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

}  // namespace ofdm::obs
