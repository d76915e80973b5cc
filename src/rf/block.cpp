#include "rf/block.hpp"

#include "obs/trace.hpp"
#include "rf/guard.hpp"

namespace ofdm::rf {

// Default shims: each overload funnels into the other, so a subclass
// only has to implement one (overriding neither recurses forever).

void Block::process(std::span<const cplx> in, cvec& out) {
  out = process(in);
}

cvec Block::process(std::span<const cplx> in) {
  cvec out;
  process(in, out);
  return out;
}

void Source::pull(std::size_t n, cvec& out) { out = pull(n); }

cvec Source::pull(std::size_t n) {
  cvec out;
  pull(n, out);
  return out;
}

void Block::process_observed(std::span<const cplx> in, cvec& out) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  if (probe_ == nullptr && !tracing) {
    process(in, out);
  } else {
    // The label is interned on first observed use (one lookup, outside
    // the steady state): the tracer keeps the pointer after this block
    // is gone, so it must not point into the block.
    if (tracing && trace_label_ == nullptr) {
      trace_label_ = obs::intern(name());
    }
    const std::uint64_t t0 = obs::Tracer::now_ns();
    process(in, out);
    const std::uint64_t dt = obs::Tracer::now_ns() - t0;
    if (probe_ != nullptr) probe_->record(in, out, dt);
    if (tracing) tracer.record(trace_label_, t0, dt);
  }
  // The guard sweeps after the counters are folded in, so a Throw still
  // leaves the probes/trace describing the faulting call.
  if (guard_ != nullptr) guard_->scan(out);
}

void Source::pull_observed(std::size_t n, cvec& out) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool tracing = tracer.enabled();
  if (probe_ == nullptr && !tracing) {
    pull(n, out);
  } else {
    if (tracing && trace_label_ == nullptr) {
      trace_label_ = obs::intern(name());
    }
    const std::uint64_t t0 = obs::Tracer::now_ns();
    pull(n, out);
    const std::uint64_t dt = obs::Tracer::now_ns() - t0;
    if (probe_ != nullptr) probe_->record({}, out, dt);
    if (tracing) tracer.record(trace_label_, t0, dt);
  }
  if (guard_ != nullptr) guard_->scan(out);
}

}  // namespace ofdm::rf
