#include "rtl/wlan_tx.hpp"

#include <bit>
#include <cmath>

#include "coding/interleaver.hpp"
#include "core/profiles.hpp"
#include "core/tone_map.hpp"
#include "mapping/constellation.hpp"

namespace ofdm::rtl {

namespace {
constexpr std::size_t kN = 64;
constexpr std::size_t kCp = 16;
constexpr std::size_t kStages = 6;

std::vector<std::size_t> make_bitrev() {
  std::vector<std::size_t> rev(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < kStages; ++b) {
      r |= ((i >> b) & 1u) << (kStages - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}
}  // namespace

WlanTx::WlanTx(Simulator& sim, Signal<bool>& clk, mapping::Scheme scheme,
               std::size_t n_symbols)
    : scheme_(scheme),
      n_symbols_(n_symbols),
      n_bpsc_(mapping::bits_per_symbol(scheme)),
      cbps_(48 * n_bpsc_),
      bitrev_(make_bitrev()),
      mapper_rom_(mapping::Constellation::make(scheme)),
      sample_valid_(sim, false),
      sample_out_(sim, cplx{0.0, 0.0}),
      done_(sim, false),
      clk_(clk) {
  OFDM_REQUIRE(n_symbols >= 1, "WlanTx: need at least one symbol");

  interleave_map_ = coding::make_wlan_interleaver(cbps_, n_bpsc_).mapping();

  // Twiddle ROM, conjugated for the inverse transform (same values the
  // behavioural FFT uses).
  twiddle_.resize(kN / 2);
  for (std::size_t k = 0; k < kN / 2; ++k) {
    const double a = -kTwoPi * static_cast<double>(k) /
                     static_cast<double>(kN);
    twiddle_[k] = std::conj(cplx{std::cos(a), std::sin(a)});
  }

  // Carrier plan from the behavioural profile (ROM contents).
  const core::OfdmParams ref = core::profile_wlan_80211a();
  const core::ToneLayout layout = core::make_tone_layout(ref);
  bin_role_.assign(kN, 0);
  bin_data_index_.assign(kN, 0);
  bin_pilot_index_.assign(kN, 0);
  for (std::size_t i = 0; i < layout.data_bins.size(); ++i) {
    bin_role_[layout.data_bins[i]] = 1;
    bin_data_index_[layout.data_bins[i]] = i;
  }
  for (std::size_t i = 0; i < layout.pilot_bins.size(); ++i) {
    bin_role_[layout.pilot_bins[i]] = 2;
    bin_pilot_index_[layout.pilot_bins[i]] = i;
  }
  pilot_base_ = ref.pilots.base_values;
  scale_ = static_cast<double>(kN) / std::sqrt(52.0);

  coded_ram_.assign(cbps_, 0);
  inter_ram_.assign(cbps_, 0);
  fft_ram_.assign(kN, cplx{0.0, 0.0});

  Process* p = sim.make_process("wlan_tx", [this]() {
    if (clk_.read()) on_clock();
  });
  clk.sensitize(p);
}

std::size_t WlanTx::payload_bits() const {
  // Rate 1/2 with 6 tail bits: cbps/2 input bits per symbol.
  return n_symbols_ * (cbps_ / 2) - 6;
}

void WlanTx::set_payload(bitvec payload) {
  OFDM_REQUIRE(payload.size() == payload_bits(),
               "WlanTx: payload must be exactly payload_bits() long");
  payload_ = std::move(payload);
  payload_pos_ = 0;
  symbol_ = 0;
  scr_state_ = 0x5D;
  conv_window_ = 0;
  pilot_lfsr_ = 0x7F;
  done_.write(false);
  start_symbol();
}

void WlanTx::start_symbol() {
  phase_ = Phase::kBitgen;
  counter_ = 0;
  fft_level_ = 0;
  fft_butterfly_ = 0;
  // Pilot polarity PRBS steps once per symbol (x^7+x^4+1, all-ones seed).
  const auto fb = static_cast<std::uint16_t>(
      ((pilot_lfsr_ >> 6) ^ (pilot_lfsr_ >> 3)) & 1u);
  pilot_polarity_ = fb ? -1.0 : 1.0;
  pilot_lfsr_ = static_cast<std::uint16_t>(((pilot_lfsr_ << 1) | fb) & 0x7F);
}

void WlanTx::on_clock() {
  bool emitted = false;
  switch (phase_) {
    case Phase::kBitgen: {
      // One input bit: scrambled payload, or an unscrambled zero tail.
      bool bit = false;
      if (payload_pos_ < payload_.size()) {
        const auto fb = static_cast<std::uint8_t>(
            ((scr_state_ >> 6) ^ (scr_state_ >> 3)) & 1u);
        bit = ((payload_[payload_pos_] ^ fb) & 1u) != 0;
        scr_state_ = static_cast<std::uint8_t>(
            ((scr_state_ << 1) | fb) & 0x7F);
        ++payload_pos_;
      }
      conv_window_ = (conv_window_ >> 1) |
                     (static_cast<std::uint32_t>(bit ? 1u : 0u) << 6);
      coded_ram_[2 * counter_] = static_cast<std::uint8_t>(
          std::popcount(conv_window_ & 0133u) & 1);
      coded_ram_[2 * counter_ + 1] = static_cast<std::uint8_t>(
          std::popcount(conv_window_ & 0171u) & 1);
      if (++counter_ == cbps_ / 2) {
        phase_ = Phase::kInterleave;
        counter_ = 0;
      }
      break;
    }
    case Phase::kInterleave: {
      inter_ram_[interleave_map_[counter_]] = coded_ram_[counter_];
      if (++counter_ == cbps_) {
        phase_ = Phase::kFftLoad;
        counter_ = 0;
      }
      break;
    }
    case Phase::kFftLoad: {
      const std::size_t bin = counter_;
      cplx value{0.0, 0.0};
      if (bin_role_[bin] == 1) {
        const std::size_t base = bin_data_index_[bin] * n_bpsc_;
        value = mapper_rom_.map(std::span<const std::uint8_t>(inter_ram_)
                                    .subspan(base, n_bpsc_));
      } else if (bin_role_[bin] == 2) {
        value = pilot_base_[bin_pilot_index_[bin]] * pilot_polarity_;
      }
      fft_ram_[bitrev_[bin]] = value;  // bit-reversed load
      if (++counter_ == kN) {
        phase_ = Phase::kFft;
        counter_ = 0;
      }
      break;
    }
    case Phase::kFft: {
      // One radix-2 DIT butterfly per clock, the textbook hardware
      // datapath; it matches the behavioural split-radix FFT to
      // rounding, not bit for bit.
      const std::size_t len = std::size_t{2} << fft_level_;
      const std::size_t half = len / 2;
      const std::size_t step = kN / len;
      const std::size_t base = (fft_butterfly_ / half) * len;
      const std::size_t k = fft_butterfly_ % half;
      const cplx w = twiddle_[k * step];
      const cplx u = fft_ram_[base + k];
      const cplx t = fft_ram_[base + k + half] * w;
      fft_ram_[base + k] = u + t;
      fft_ram_[base + k + half] = u - t;
      if (++fft_butterfly_ == kN / 2) {
        fft_butterfly_ = 0;
        if (++fft_level_ == kStages) {
          phase_ = Phase::kOutput;
          counter_ = 0;
        }
      }
      break;
    }
    case Phase::kOutput: {
      const std::size_t idx =
          counter_ < kCp ? kN - kCp + counter_ : counter_ - kCp;
      const cplx sample =
          (fft_ram_[idx] * (1.0 / static_cast<double>(kN))) * scale_;
      sample_out_.write(sample);
      sample_valid_.write(true);
      emitted = true;
      if (++counter_ == kCp + kN) {
        // valid is deasserted on the *next* edge (see below) so the last
        // sample stays observable for a full half-cycle.
        if (++symbol_ == n_symbols_) {
          phase_ = Phase::kDone;
          done_.write(true);
        } else {
          start_symbol();
        }
      }
      break;
    }
    case Phase::kDone:
      break;
  }
  if (!emitted) sample_valid_.write(false);
}

WlanTxRun run_wlan_tx(mapping::Scheme scheme, std::size_t n_symbols,
                      const bitvec& payload) {
  Simulator sim;
  Clock clock(sim, 5);  // 100 MHz system clock (10 ns period)
  WlanTx tx(sim, clock.signal(), scheme, n_symbols);
  tx.set_payload(payload);

  WlanTxRun result;
  result.samples.reserve(tx.expected_samples());
  // Monitor: latch one sample per rising edge while valid is high. The
  // output registers settle in the same delta as the datapath clock
  // process, so sample on the falling edge.
  Process* mon = sim.make_process("monitor", [&]() {
    if (!clock.signal().read() && tx.sample_valid().read()) {
      result.samples.push_back(tx.sample_out().read());
    }
  });
  clock.signal().sensitize(mon);

  // Run until the datapath raises done (the clock self-reschedules
  // forever, so an unconditional run() would never return).
  const SimTime hard_limit =
      static_cast<SimTime>(n_symbols) * 1000 * 10 + 100000;
  while (!tx.done().read() && sim.now() < hard_limit) {
    sim.run(sim.now() + 10000);
  }
  result.stats = sim.stats();
  result.finish_time = sim.now();
  return result;
}

}  // namespace ofdm::rtl
