#include "rf/submodel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf {

Submodel::Submodel(core::OfdmParams params, std::size_t gap_samples,
                   std::uint64_t payload_seed)
    : tx_(std::move(params)),
      gap_samples_(gap_samples),
      rng_(payload_seed),
      payload_seed_(payload_seed) {}

void Submodel::configure(core::OfdmParams params) {
  tx_.configure(std::move(params));
  // Flush *all* streaming state, not just the buffered tail: the frame
  // counter restarts and the payload PRNG is reseeded, so the stream
  // from here on is exactly what a freshly built Submodel of the new
  // standard would emit.
  buffer_.clear();
  read_pos_ = 0;
  frames_ = 0;
  rng_ = Rng(payload_seed_);
}

void Submodel::refill() {
  const std::size_t n_bits = tx_.recommended_payload_bits();
  const bitvec payload = rng_.bits(n_bits);
  auto burst = tx_.modulate(payload);
  buffer_ = std::move(burst.samples);
  buffer_.insert(buffer_.end(), gap_samples_, cplx{0.0, 0.0});
  read_pos_ = 0;
  ++frames_;
}

void Submodel::pull(std::size_t n, cvec& out) {
  out.clear();
  out.reserve(n);
  while (out.size() < n) {
    if (read_pos_ >= buffer_.size()) refill();
    const std::size_t take =
        std::min(n - out.size(), buffer_.size() - read_pos_);
    out.insert(out.end(),
               buffer_.begin() + static_cast<std::ptrdiff_t>(read_pos_),
               buffer_.begin() +
                   static_cast<std::ptrdiff_t>(read_pos_ + take));
    read_pos_ += take;
  }
}

void Submodel::reset() {
  buffer_.clear();
  read_pos_ = 0;
  frames_ = 0;
  rng_ = Rng(payload_seed_);
}

std::string Submodel::name() const {
  return "submodel[" + core::standard_name(tx_.params().standard) + "]";
}

void Submodel::save_state(StateWriter& w) const {
  // Record the standard so a restore into a differently configured
  // Submodel fails loudly instead of resuming the wrong waveform.
  w.str(core::standard_name(tx_.params().standard));
  rng_.save(w);
  w.u64(frames_);
  w.u64(read_pos_);
  w.vec_c(buffer_);
}

void Submodel::load_state(StateReader& r) {
  const std::string standard = r.str();
  const std::string mine = core::standard_name(tx_.params().standard);
  if (standard != mine) {
    throw StateError("Submodel::load_state: snapshot was taken from '" +
                     standard + "' but this submodel is configured for '" +
                     mine + "'");
  }
  rng_.load(r);
  frames_ = r.u64();
  read_pos_ = r.u64();
  r.vec_c(buffer_);
}

ToneSource::ToneSource(double freq_hz, double sample_rate, double amplitude)
    : phase_step_(kTwoPi * freq_hz / sample_rate), amplitude_(amplitude) {
  OFDM_REQUIRE(sample_rate > 0.0, "ToneSource: sample rate must be > 0");
}

void ToneSource::pull(std::size_t n, cvec& out) {
  out.resize(n);
  for (cplx& v : out) {
    v = amplitude_ * cplx{std::cos(phase_), std::sin(phase_)};
    phase_ = std::fmod(phase_ + phase_step_, kTwoPi);
  }
}

void ToneSource::reset() { phase_ = 0.0; }

void ToneSource::save_state(StateWriter& w) const { w.f64(phase_); }

void ToneSource::load_state(StateReader& r) { phase_ = r.f64(); }

}  // namespace ofdm::rf
