// Pilot tone value generation: per-symbol pilot vectors from the static
// base values, optional polarity PRBS and amplitude boost in PilotConfig.
#pragma once

#include <optional>

#include "coding/lfsr.hpp"
#include "core/params.hpp"

namespace ofdm::core {

class PilotGenerator {
 public:
  PilotGenerator(const PilotConfig& cfg, std::size_t pilot_count);

  /// Pilot values for the next OFDM symbol (advances the polarity PRBS),
  /// into a caller-owned buffer (overwritten; keeps its capacity).
  void next_symbol_into(cvec& out);

  /// Restart the polarity sequence (new frame).
  void reset();

 private:
  PilotConfig cfg_;
  std::size_t count_;
  std::optional<coding::Lfsr> prbs_;
};

}  // namespace ofdm::core
