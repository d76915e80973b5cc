// Per-block instrumentation for the streaming RF datapath.
//
// A ProbeSet is attached to a Chain or Netlist (or to individual blocks)
// and from then on every observed process()/pull() call updates a
// BlockProbe: samples in/out, invocation count, cumulative busy time,
// peak |sample| and clip events on the output, and — in golden-trace
// capture mode — a rolling 64-bit hash of the output stream.
//
// Cost model: with no probe attached the observed call path is a single
// pointer test. With a probe attached, counter updates are plain member
// arithmetic and the optional signal scan is one pass over the output
// chunk; nothing here allocates, so an instrumented steady-state run
// stays allocation-free (test_zero_alloc covers this).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>

#include "common/types.hpp"
#include "obs/scan.hpp"
#include "obs/stream_hash.hpp"

namespace ofdm::obs {

/// What an attached probe measures beyond the free counters.
struct ProbeConfig {
  /// Scan output chunks for peak |sample| and clip events.
  bool measure_signal = true;
  /// Golden-trace capture: rolling hash of every output sample.
  bool hash_output = false;
  /// |sample| above which an output sample counts as a clip event.
  double clip_threshold = 1.0;
};

/// Counters for one observed block (or source). Addresses are stable for
/// the lifetime of the owning ProbeSet.
class BlockProbe {
 public:
  BlockProbe(std::string name, const ProbeConfig* cfg)
      : name_(std::move(name)), cfg_(cfg) {}

  /// Fold one observed call into the counters. `in` may be empty for
  /// sources (their input is a sample request, not a stream).
  void record(std::span<const cplx> in, std::span<const cplx> out,
              std::uint64_t busy_ns) {
    ++invocations_;
    samples_in_ += in.size();
    samples_out_ += out.size();
    busy_ns_ += busy_ns;
    if (!cfg_->measure_signal && !cfg_->hash_output) return;
    // The signal scan and hash are observer work, not block work: time
    // them separately so a Report can attribute the whole instrumented
    // wall clock without inflating any block's own throughput.
    using clock = std::chrono::steady_clock;
    const auto scan0 = clock::now();
    if (cfg_->measure_signal) {
      scan_peak_clip(out, cfg_->clip_threshold, peak_power_, clip_events_);
    }
    if (cfg_->hash_output) hash_.update(out);
    overhead_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             scan0)
            .count());
  }

  const std::string& name() const { return name_; }
  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t samples_in() const { return samples_in_; }
  std::uint64_t samples_out() const { return samples_out_; }
  std::uint64_t busy_ns() const { return busy_ns_; }
  double busy_seconds() const { return static_cast<double>(busy_ns_) * 1e-9; }
  /// Time spent inside the probe itself (signal scan + hashing).
  double overhead_seconds() const {
    return static_cast<double>(overhead_ns_) * 1e-9;
  }
  /// Peak |sample| over every output chunk seen.
  double peak_magnitude() const;
  std::uint64_t clip_events() const { return clip_events_; }
  /// Digest of the output stream (meaningful when hash_output is set).
  std::uint64_t output_hash() const { return hash_.digest(); }
  bool hashing() const { return cfg_->hash_output; }

  /// Mean output throughput attributed to this block, in Msamples/s of
  /// its own busy time (0 when it never ran).
  double throughput_msps() const;

  void reset() {
    invocations_ = samples_in_ = samples_out_ = busy_ns_ = 0;
    overhead_ns_ = 0;
    clip_events_ = 0;
    peak_power_ = 0.0;
    hash_.reset();
  }

 private:
  std::string name_;
  const ProbeConfig* cfg_;
  std::uint64_t invocations_ = 0;
  std::uint64_t samples_in_ = 0;
  std::uint64_t samples_out_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t overhead_ns_ = 0;
  std::uint64_t clip_events_ = 0;
  double peak_power_ = 0.0;  // peak |sample|^2; sqrt taken on read
  StreamHash hash_;
};

/// Owns the probes for one instrumented graph. A deque keeps probe
/// addresses stable as blocks register, so rf::Block can hold a raw
/// pointer; the set must outlive the blocks it instruments (or the
/// blocks must detach first).
class ProbeSet {
 public:
  explicit ProbeSet(ProbeConfig cfg = {}) : cfg_(cfg) {}

  ProbeSet(const ProbeSet&) = delete;
  ProbeSet& operator=(const ProbeSet&) = delete;

  /// Register a probe under `name`; duplicate names are disambiguated
  /// with a #k suffix so chains with repeated block types stay readable.
  BlockProbe& add(std::string name);

  const ProbeConfig& config() const { return cfg_; }
  std::size_t size() const { return probes_.size(); }
  const BlockProbe& at(std::size_t i) const { return probes_.at(i); }
  BlockProbe& at(std::size_t i) { return probes_.at(i); }

  /// Probe by exact (possibly suffixed) name; nullptr when absent.
  const BlockProbe* find(const std::string& name) const;

  auto begin() const { return probes_.begin(); }
  auto end() const { return probes_.end(); }

  /// Zero every probe's counters (the registrations stay).
  void reset();

 private:
  ProbeConfig cfg_;
  std::deque<BlockProbe> probes_;
};

}  // namespace ofdm::obs
