// Aggregated per-block run report: the human- and machine-readable view
// over a ProbeSet. Renders a table (stdout) or JSON (bench/regress.py
// consumes this to attribute a throughput regression to a block instead
// of a whole benchmark).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hpp"

namespace ofdm::obs {

struct Report {
  struct Row {
    std::string name;
    std::uint64_t invocations = 0;
    std::uint64_t samples_in = 0;
    std::uint64_t samples_out = 0;
    double busy_seconds = 0.0;
    double throughput_msps = 0.0;  ///< samples_out / busy time
    double wall_fraction = 0.0;    ///< busy / total run wall time
    double peak_magnitude = 0.0;
    std::uint64_t clip_events = 0;
    std::uint64_t output_hash = 0;  ///< 0 when hashing was off
  };

  std::vector<Row> rows;
  double total_seconds = 0.0;       ///< wall time of the attributed run
  double attributed_seconds = 0.0;  ///< per-block busy + probe overhead
  double probe_seconds = 0.0;       ///< observer cost (scan + hashing)

  /// Fraction of the run's wall time attributed to named blocks
  /// (1.0 when total_seconds is unknown/zero).
  double attributed_fraction() const;

  /// Build a report from a probe set and the run's wall time (e.g.
  /// RunStats::elapsed_seconds). Rows keep registration order.
  static Report from(const ProbeSet& probes, double total_seconds);

  /// Fixed-width table, one row per block, with an attribution footer.
  std::string table() const;

  /// JSON object: {"total_seconds":..,"attributed_fraction":..,
  /// "blocks":[{...}]}. Hashes are emitted as hex strings.
  std::string to_json() const;
};

}  // namespace ofdm::obs
