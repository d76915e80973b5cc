// The RF system simulator's block abstraction.
//
// This module plays APLAC's role in the paper: a block-based RF system
// simulator into which the digital Mother Model is embedded as a signal
// source. Blocks stream chunks of complex baseband (or real passband,
// carried in the real part) samples; sources produce them on demand.
//
// Streaming is allocation-free in steady state: the buffered overloads
// write into caller-owned vectors that are reused chunk after chunk, so
// after warm-up no block on the hot path touches the heap.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/probe.hpp"

namespace ofdm {
class StateWriter;
class StateReader;
}  // namespace ofdm

namespace ofdm::rf {

class NumericGuard;

/// A signal-processing block. Implementations keep their own streaming
/// state so that chunked processing equals one-shot processing.
///
/// Exactly one of the two process() overloads must be overridden (each
/// default forwards to the other): the buffered form is the hot path,
/// the allocating form a convenience. Sample-wise 1:1 blocks accept `in`
/// aliasing `out`'s storage exactly (in.data() == out.data()); rate
/// changers and Chain require distinct buffers.
class Block {
 public:
  virtual ~Block() = default;

  /// Transform one chunk into `out`, resizing it to the output length.
  /// Most blocks are 1:1 in sample count; rate changers (DAC
  /// interpolation, decimation) are not.
  virtual void process(std::span<const cplx> in, cvec& out);

  /// Allocating convenience form (legacy API).
  virtual cvec process(std::span<const cplx> in);

  /// Clear streaming state.
  virtual void reset() {}

  /// Display name for simulation reports.
  virtual std::string name() const = 0;

  /// Checkpoint/restore: serialize the block's streaming state (RNG
  /// cursors, delay lines, phase accumulators) so a long run can
  /// snapshot and later resume bit-identically in a freshly built,
  /// identically configured graph. Stateless blocks inherit the no-op
  /// defaults; stateful overrides must read back exactly what they
  /// wrote, in the same order.
  virtual void save_state(StateWriter& /*w*/) const {}
  virtual void load_state(StateReader& /*r*/) {}

  /// Attach (nullptr detaches) an observability probe. The probe — and
  /// the obs::ProbeSet that owns it — must outlive the block, or be
  /// detached first. Chain/Netlist::attach_probes() wires whole graphs.
  void set_probe(obs::BlockProbe* probe) { probe_ = probe; }
  obs::BlockProbe* probe() const { return probe_; }

  /// Attach (nullptr detaches) a numerical-health guard; lifetime rules
  /// are as for probes (the owning GuardSet must outlive the block).
  /// Chain/Netlist::attach_guards() wires whole graphs.
  void set_guard(NumericGuard* guard) { guard_ = guard; }
  NumericGuard* guard() const { return guard_; }

  /// Instrumented entry point used by Chain/Netlist and other drivers:
  /// forwards to process(), and when a probe is attached or the global
  /// tracer is enabled, also times the call and updates the counters /
  /// emits a trace span. An attached guard then sweeps the output chunk
  /// (and may repair it or throw ofdm::StreamError, per its policy).
  /// With nothing attached, the extra cost is a few predictable
  /// branches — the datapath stays allocation-free either way.
  void process_observed(std::span<const cplx> in, cvec& out);

 private:
  obs::BlockProbe* probe_ = nullptr;
  NumericGuard* guard_ = nullptr;
  const char* trace_label_ = nullptr;  // obs::intern(name()), lazily
};

/// A signal source: produces samples on demand (the paper's "signal
/// source block" role, filled by the wrapped Mother Model). As with
/// Block, override exactly one pull() overload.
class Source {
 public:
  virtual ~Source() = default;

  /// Produce exactly n samples into `out` (resized).
  virtual void pull(std::size_t n, cvec& out);

  /// Allocating convenience form (legacy API).
  virtual cvec pull(std::size_t n);

  virtual void reset() {}
  virtual std::string name() const = 0;

  /// Checkpoint/restore; see Block::save_state.
  virtual void save_state(StateWriter& /*w*/) const {}
  virtual void load_state(StateReader& /*r*/) {}

  /// As Block::set_probe: samples_in stays 0 (a source consumes sample
  /// requests, not a stream).
  void set_probe(obs::BlockProbe* probe) { probe_ = probe; }
  obs::BlockProbe* probe() const { return probe_; }

  /// As Block::set_guard: the guard sweeps what the source produces.
  void set_guard(NumericGuard* guard) { guard_ = guard; }
  NumericGuard* guard() const { return guard_; }

  /// Instrumented pull; see Block::process_observed.
  void pull_observed(std::size_t n, cvec& out);

 private:
  obs::BlockProbe* probe_ = nullptr;
  NumericGuard* guard_ = nullptr;
  const char* trace_label_ = nullptr;
};

}  // namespace ofdm::rf
