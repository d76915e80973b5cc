// Shared pieces of the benchmark program: run arguments, the metric
// table printed as the run's last stdout line, and small statistics
// helpers. See README.md for what each workload loads and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// The seed whose curves must also match the digests recorded in
/// campaign_load.cpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One run's outcome: operation accounting plus named metrics in
/// insertion order.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Marks the run incorrect; `what` goes to stderr.
  void fail(const std::string& what, std::uint64_t failed_ops);
};

Outcome run_coded_awgn(const Args& args);
Outcome run_fading_uncoded(const Args& args);
Outcome run_daemon_mix(const Args& args);

/// Per-layer metrics of the daemon, reported as 0 on workloads that
/// never reach it.
void put_absent_daemon_metrics(Outcome& out);

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The `q`-quantile of `v` (nearest rank). Callers pass the highest
/// quantile that leaves at least ten samples beyond it.
double quantile(std::vector<double> v, double q);

/// 99th percentile when there are >= 1000 samples, otherwise the
/// highest percentile with ten samples beyond it.
double tail_quantile(std::vector<double> v);

/// FNV-1a 64 over a byte string (curve digests).
std::uint64_t fnv1a(const std::string& bytes);

/// A seed for one purpose (`salt`) derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return ofdm::Rng::substream(seed, salt, 0).next_u64();
}

/// Worker count of the many-worker configurations.
std::size_t many_workers();

/// Directory for run artefacts (daemon state, Chrome traces),
/// inside the build tree of the checkout the benchmark runs from.
std::string artefact_dir();

}  // namespace perfbench
