#include "dsp/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace ofdm::simd {
namespace {

const Kernels* table_for(Tier tier) {
  switch (tier) {
#if defined(__x86_64__) || defined(_M_X64)
    case Tier::kSse2:
      return &sse2_kernels();
    case Tier::kAvx2:
      return &avx2_kernels();
#endif
    default:
      return &scalar_kernels();
  }
}

/// Clamp a requested tier to what this build + CPU can actually run.
Tier clamp_to_supported(Tier tier) {
#if defined(__x86_64__) || defined(_M_X64)
  if (tier == Tier::kAvx2 && !__builtin_cpu_supports("avx2")) {
    return Tier::kSse2;
  }
  return tier;
#else
  (void)tier;
  return Tier::kScalar;
#endif
}

Tier tier_from_env() {
  const char* env = std::getenv("OFDM_SIMD");
  if (env == nullptr || *env == '\0' ||
      std::strcmp(env, "auto") == 0) {
    return best_supported_tier();
  }
  if (std::strcmp(env, "scalar") == 0) return Tier::kScalar;
  if (std::strcmp(env, "sse2") == 0) {
    return clamp_to_supported(Tier::kSse2);
  }
  if (std::strcmp(env, "avx2") == 0) {
    return clamp_to_supported(Tier::kAvx2);
  }
  OFDM_REQUIRE(false, std::string("OFDM_SIMD: unknown tier '") + env +
                          "' (want scalar|sse2|avx2|auto)");
  return Tier::kScalar;
}

std::atomic<const Kernels*> g_kernels{nullptr};
std::atomic<Tier> g_tier{Tier::kScalar};

const Kernels* resolve() {
  const Tier tier = tier_from_env();
  const Kernels* table = table_for(tier);
  g_tier.store(tier, std::memory_order_relaxed);
  // First resolver wins; a concurrent force_tier() may already have
  // installed a table, in which case keep it.
  const Kernels* expected = nullptr;
  if (g_kernels.compare_exchange_strong(expected, table,
                                        std::memory_order_release,
                                        std::memory_order_acquire)) {
    return table;
  }
  return expected;
}

}  // namespace

Tier best_supported_tier() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kSse2;
#else
  return Tier::kScalar;
#endif
}

const Kernels& kernels() {
  const Kernels* table = g_kernels.load(std::memory_order_acquire);
  if (table == nullptr) table = resolve();
  return *table;
}

Tier active_tier() {
  kernels();  // force resolution
  return g_tier.load(std::memory_order_relaxed);
}

std::string tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

Tier force_tier(Tier tier) {
  const Tier actual = clamp_to_supported(tier);
  g_tier.store(actual, std::memory_order_relaxed);
  g_kernels.store(table_for(actual), std::memory_order_release);
  return actual;
}

}  // namespace ofdm::simd
