#include "core/pilots.hpp"

#include "common/error.hpp"

namespace ofdm::core {

PilotGenerator::PilotGenerator(const PilotConfig& cfg,
                               std::size_t pilot_count)
    : cfg_(cfg), count_(pilot_count) {
  OFDM_REQUIRE(cfg_.base_values.size() == count_,
               "PilotGenerator: base value count mismatch");
  if (cfg_.polarity_prbs && count_ > 0) {
    prbs_.emplace(cfg_.prbs_degree, cfg_.prbs_taps, cfg_.prbs_seed);
  }
}

void PilotGenerator::next_symbol_into(cvec& out) {
  out.assign(cfg_.base_values.begin(), cfg_.base_values.end());
  double polarity = 1.0;
  if (prbs_) {
    // 802.11a convention: PRBS output 1 flips the pilot signs.
    polarity = prbs_->next(1) != 0 ? -1.0 : 1.0;
  }
  for (cplx& v : out) v *= polarity * cfg_.boost;
}

void PilotGenerator::reset() {
  if (prbs_) prbs_->reset(cfg_.prbs_seed);
}

}  // namespace ofdm::core
