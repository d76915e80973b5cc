#include "obs/report.hpp"

#include <cinttypes>
#include <cstdio>

namespace ofdm::obs {

double Report::attributed_fraction() const {
  if (total_seconds <= 0.0) return 1.0;
  return attributed_seconds / total_seconds;
}

Report Report::from(const ProbeSet& probes, double total_seconds) {
  Report r;
  r.total_seconds = total_seconds;
  for (const BlockProbe& p : probes) {
    Row row;
    row.name = p.name();
    row.invocations = p.invocations();
    row.samples_in = p.samples_in();
    row.samples_out = p.samples_out();
    row.busy_seconds = p.busy_seconds();
    row.throughput_msps = p.throughput_msps();
    row.wall_fraction =
        total_seconds > 0.0 ? p.busy_seconds() / total_seconds : 0.0;
    row.peak_magnitude = p.peak_magnitude();
    row.clip_events = p.clip_events();
    row.output_hash = p.hashing() ? p.output_hash() : 0;
    // The probe's own scan/hash time is part of the instrumented run's
    // wall clock; attribute it (as observer cost) without folding it
    // into the block's busy time and throughput.
    r.attributed_seconds += row.busy_seconds + p.overhead_seconds();
    r.probe_seconds += p.overhead_seconds();
    r.rows.push_back(std::move(row));
  }
  return r;
}

std::string Report::table() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s %10s %12s %12s %9s %7s %8s %6s\n",
                "block", "calls", "in", "out", "Msps", "wall%", "peak",
                "clips");
  out += line;
  for (const Row& r : rows) {
    std::snprintf(line, sizeof(line),
                  "%-22s %10" PRIu64 " %12" PRIu64 " %12" PRIu64
                  " %9.2f %6.1f%% %8.3f %6" PRIu64 "\n",
                  r.name.c_str(), r.invocations, r.samples_in,
                  r.samples_out, r.throughput_msps,
                  100.0 * r.wall_fraction, r.peak_magnitude, r.clip_events);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "attributed %.1f%% of %.3f ms wall time to %zu blocks"
                " (probe overhead %.3f ms)\n",
                100.0 * attributed_fraction(), total_seconds * 1e3,
                rows.size(), probe_seconds * 1e3);
  out += line;
  return out;
}

std::string Report::to_json() const {
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\n \"total_seconds\": %.9f,\n"
                " \"attributed_seconds\": %.9f,\n"
                " \"probe_seconds\": %.9f,\n"
                " \"attributed_fraction\": %.6f,\n \"blocks\": [",
                total_seconds, attributed_seconds, probe_seconds,
                attributed_fraction());
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n  {\"name\": \"%s\", \"invocations\": %" PRIu64
        ", \"samples_in\": %" PRIu64 ", \"samples_out\": %" PRIu64
        ", \"busy_seconds\": %.9f, \"throughput_msps\": %.4f"
        ", \"wall_fraction\": %.6f, \"peak_magnitude\": %.6f"
        ", \"clip_events\": %" PRIu64 ", \"output_hash\": \"%016" PRIx64
        "\"}",
        i == 0 ? "" : ",", r.name.c_str(), r.invocations, r.samples_in,
        r.samples_out, r.busy_seconds, r.throughput_msps, r.wall_fraction,
        r.peak_magnitude, r.clip_events, r.output_hash);
    out += buf;
  }
  out += "\n ]";
  out += "\n}\n";
  return out;
}

}  // namespace ofdm::obs
