// Runtime tier selection for the SIMD kernel table.
//
// The tier is chosen exactly once, at first use: the `OFDM_SIMD`
// environment variable wins if set ("scalar", "sse2", "avx2" or
// "auto"), otherwise the best tier the CPU supports is picked. Other
// platforms, AArch64 included, run the scalar tier. All
// datapath code funnels through `kernels()`, so an A/B run is just
// `OFDM_SIMD=scalar ./bench_e5` against the default.
#pragma once

#include <string>

#include "dsp/simd/kernels.hpp"

namespace ofdm::simd {

enum class Tier {
  kScalar,
  kSse2,
  kAvx2,
};

/// The active kernel table. First call resolves OFDM_SIMD + CPU
/// features; later calls are a single relaxed atomic load.
const Kernels& kernels();

/// The active tier (resolves on first use, like kernels()).
Tier active_tier();

/// "scalar" / "sse2" / "avx2".
std::string tier_name(Tier tier);

/// Override the dispatch decision (benches and the digest-equivalence
/// test use this to pit tiers against each other). Requesting a tier
/// the CPU or build does not support falls back to the best supported
/// tier at or below the request; returns the tier actually installed.
Tier force_tier(Tier tier);

/// Best tier this build + CPU supports (what auto-detection picks).
Tier best_supported_tier();

}  // namespace ofdm::simd
