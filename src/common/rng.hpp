// Deterministic random number generation for reproducible simulations.
//
// Every stochastic element in the library (payload bits, AWGN, phase noise,
// Monte-Carlo sweeps) draws from ofdm::Rng so that a simulation seeded the
// same way produces bit-identical results across runs and platforms.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace ofdm {

class StateWriter;
class StateReader;

/// xoshiro256++ generator: small, fast, and fully reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Counter-based substream derivation for Monte-Carlo campaigns: the
  /// returned generator is a pure function of (campaign_seed,
  /// point_index, trial_index) — no shared ancestor stream is advanced —
  /// so any trial's stream can be constructed directly, in any order,
  /// from any thread, and a resumed sweep re-derives exactly the streams
  /// an uninterrupted one would have used. (SplitMix64 finalizer chained
  /// over the three counters.)
  static Rng substream(std::uint64_t campaign_seed,
                       std::uint64_t point_index,
                       std::uint64_t trial_index);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal draw (Box-Muller, cached second value).
  double gaussian();

  /// Zero-mean circular complex gaussian with total variance `variance`
  /// (i.e. variance/2 per real dimension).
  cplx complex_gaussian(double variance = 1.0);

  /// Batch fill producing the *identical* stream to out.size() repeated
  /// gaussian() calls — including consuming and refilling the Box-Muller
  /// cache — but amortizing the per-call overhead.
  void gaussian_fill(std::span<double> out);

  /// Batch equivalent of out.size() complex_gaussian(variance) calls,
  /// bit-identical to the one-at-a-time stream.
  void complex_gaussian_fill(std::span<cplx> out, double variance = 1.0);

  /// A fresh bit (0 or 1).
  std::uint8_t bit();

  /// `n` fresh bits.
  bitvec bits(std::size_t n);

  /// bits(out.size()) into a caller-owned buffer.
  void bits_into(std::span<std::uint8_t> out);

  /// `n` fresh bytes.
  bytevec bytes(std::size_t n);

  /// Checkpoint/restore: serialize the full generator state (xoshiro
  /// words plus the Box-Muller cache) so a restored stream continues
  /// bit-identically.
  void save(StateWriter& w) const;
  void load(StateReader& r);

 private:
  std::uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace ofdm
