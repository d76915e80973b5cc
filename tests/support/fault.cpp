#include "support/fault.hpp"

#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace ofdm::rf {

FlakyBlock::FlakyBlock(std::unique_ptr<Block> inner,
                       std::size_t every_n_chunks, Fault fault,
                       std::uint64_t seed)
    : inner_(std::move(inner)),
      every_(every_n_chunks),
      fault_(fault),
      rng_(seed),
      seed_(seed) {
  OFDM_REQUIRE(inner_ != nullptr, "FlakyBlock: null inner block");
}

void FlakyBlock::process(std::span<const cplx> in, cvec& out) {
  inner_->process(in, out);
  ++chunks_;
  if (every_ > 0 && chunks_ % every_ == 0 && !out.empty()) {
    const std::size_t i = rng_.uniform_int(out.size());
    double bad = 0.0;
    switch (fault_) {
      case Fault::kNaN:
        bad = std::numeric_limits<double>::quiet_NaN();
        break;
      case Fault::kInf:
        bad = std::numeric_limits<double>::infinity();
        break;
      case Fault::kHuge:
        bad = 1e30;
        break;
    }
    out[i] = cplx{bad, out[i].imag()};
    last_offset_ = samples_out_ + i;
    ++faults_;
  }
  samples_out_ += out.size();
}

void FlakyBlock::reset() {
  inner_->reset();
  rng_ = Rng(seed_);
  chunks_ = 0;
  samples_out_ = 0;
  faults_ = 0;
  last_offset_ = 0;
}

std::string FlakyBlock::name() const {
  return "flaky[" + inner_->name() + "]";
}

void FlakyBlock::save_state(StateWriter& w) const {
  rng_.save(w);
  w.u64(chunks_);
  w.u64(samples_out_);
  w.u64(faults_);
  w.u64(last_offset_);
  w.begin_node(inner_->name());
  inner_->save_state(w);
  w.end_node();
}

void FlakyBlock::load_state(StateReader& r) {
  rng_.load(r);
  chunks_ = r.u64();
  samples_out_ = r.u64();
  faults_ = r.u64();
  last_offset_ = r.u64();
  r.enter_node(inner_->name());
  inner_->load_state(r);
  r.exit_node();
}

BurstNoise::BurstNoise(std::size_t period, std::size_t burst_len,
                       double power, std::uint64_t seed)
    : period_(period),
      burst_len_(burst_len),
      power_(power),
      rng_(seed),
      seed_(seed) {
  OFDM_REQUIRE(period > 0, "BurstNoise: period must be positive");
  OFDM_REQUIRE(burst_len <= period,
               "BurstNoise: burst cannot be longer than the period");
  OFDM_REQUIRE(power >= 0.0, "BurstNoise: power must be non-negative");
}

void BurstNoise::process(std::span<const cplx> in, cvec& out) {
  if (out.data() != in.data()) out.assign(in.begin(), in.end());
  for (cplx& v : out) {
    const std::size_t phase = pos_ % period_;
    if (phase < burst_len_) {
      if (phase == 0) ++bursts_;
      v += rng_.complex_gaussian(power_);
    }
    ++pos_;
  }
}

void BurstNoise::reset() {
  rng_ = Rng(seed_);
  pos_ = 0;
  bursts_ = 0;
}

void BurstNoise::save_state(StateWriter& w) const {
  rng_.save(w);
  w.u64(pos_);
  w.u64(bursts_);
}

void BurstNoise::load_state(StateReader& r) {
  rng_.load(r);
  pos_ = r.u64();
  bursts_ = r.u64();
}

SampleDropper::SampleDropper(std::size_t drop_every, bool zero_fill)
    : drop_every_(drop_every), zero_fill_(zero_fill) {
  OFDM_REQUIRE(drop_every >= 2,
               "SampleDropper: drop_every must be >= 2 (1 would drop "
               "the whole stream)");
}

void SampleDropper::process(std::span<const cplx> in, cvec& out) {
  // The output may be shorter than the input, so build into a shrunken
  // vector rather than editing in place; `out` must not alias `in`.
  out.clear();
  out.reserve(in.size());
  for (const cplx& v : in) {
    ++pos_;
    if (pos_ % drop_every_ == 0) {
      ++dropped_;
      if (zero_fill_) out.push_back(cplx{0.0, 0.0});
      continue;
    }
    out.push_back(v);
  }
}

void SampleDropper::reset() {
  pos_ = 0;
  dropped_ = 0;
}

void SampleDropper::save_state(StateWriter& w) const {
  w.u64(pos_);
  w.u64(dropped_);
}

void SampleDropper::load_state(StateReader& r) {
  pos_ = r.u64();
  dropped_ = r.u64();
}

StallingSource::StallingSource(std::unique_ptr<Source> inner,
                               std::size_t every_n_pulls,
                               std::chrono::microseconds stall)
    : inner_(std::move(inner)), every_(every_n_pulls), stall_(stall) {
  OFDM_REQUIRE(inner_ != nullptr, "StallingSource: null inner source");
}

void StallingSource::pull(std::size_t n, cvec& out) {
  ++pulls_;
  if (every_ > 0 && pulls_ % every_ == 0) {
    ++stalls_;
    std::this_thread::sleep_for(stall_);
  }
  inner_->pull(n, out);
}

void StallingSource::reset() {
  inner_->reset();
  pulls_ = 0;
  stalls_ = 0;
}

std::string StallingSource::name() const {
  return "stalling[" + inner_->name() + "]";
}

void StallingSource::save_state(StateWriter& w) const {
  w.u64(pulls_);
  w.u64(stalls_);
  w.begin_node(inner_->name());
  inner_->save_state(w);
  w.end_node();
}

void StallingSource::load_state(StateReader& r) {
  pulls_ = r.u64();
  stalls_ = r.u64();
  r.enter_node(inner_->name());
  inner_->load_state(r);
  r.exit_node();
}

}  // namespace ofdm::rf
