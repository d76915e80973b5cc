#include "obs/probe.hpp"

#include <cmath>

namespace ofdm::obs {

double BlockProbe::peak_magnitude() const { return std::sqrt(peak_power_); }

double BlockProbe::throughput_msps() const {
  if (busy_ns_ == 0) return 0.0;
  return static_cast<double>(samples_out_) * 1e3 /
         static_cast<double>(busy_ns_);
}

BlockProbe& ProbeSet::add(std::string name) {
  std::size_t copies = 0;
  for (const BlockProbe& p : probes_) {
    if (p.name() == name ||
        p.name().compare(0, name.size() + 1, name + "#") == 0) {
      ++copies;
    }
  }
  if (copies > 0) name += "#" + std::to_string(copies + 1);
  probes_.emplace_back(std::move(name), &cfg_);
  return probes_.back();
}

const BlockProbe* ProbeSet::find(const std::string& name) const {
  for (const BlockProbe& p : probes_) {
    if (p.name() == name) return &p;
  }
  return nullptr;
}

void ProbeSet::reset() {
  for (BlockProbe& p : probes_) p.reset();
}

}  // namespace ofdm::obs
