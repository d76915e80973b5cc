// Cycle-level 802.11a transmitter datapath on the event-driven kernel —
// the RT-level baseline of experiment E2.
//
// One rising clock edge performs exactly one hardware-step of work:
//   BITGEN      scramble 1 payload bit, convolve -> 2 coded bits
//   INTERLEAVE  write 1 coded bit through the interleaver address logic
//   FFTLOAD     map and load 1 subcarrier into the FFT RAM (bit-reversed)
//   FFT         execute 1 radix-2 butterfly (N/2 * log2 N per symbol)
//   OUTPUT      emit 1 sample (cyclic prefix then body)
//
// The arithmetic replicates the behavioural Mother Model operation for
// operation, so the output is bit-exact against core::Transmitter
// configured for the same mode with preamble and windowing disabled —
// the RTL/behavioural equivalence the paper's multi-domain Mother Model
// claim rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/params.hpp"
#include "rtl/kernel.hpp"

namespace ofdm::rtl {

class WlanTx {
 public:
  /// `scheme` must be a rate-1/2 mode (no puncturing logic in the
  /// datapath); `n_symbols` payload OFDM symbols are produced.
  WlanTx(Simulator& sim, Signal<bool>& clk, mapping::Scheme scheme,
         std::size_t n_symbols);

  /// Payload must be exactly payload_bits() long.
  void set_payload(bitvec payload);
  std::size_t payload_bits() const;

  Signal<bool>& sample_valid() { return sample_valid_; }
  Signal<cplx>& sample_out() { return sample_out_; }
  Signal<bool>& done() { return done_; }

  std::size_t expected_samples() const { return n_symbols_ * 80; }

 private:
  enum class Phase { kBitgen, kInterleave, kFftLoad, kFft, kOutput, kDone };

  void on_clock();
  void start_symbol();

  // --- configuration (synthesis-time constants) ---
  mapping::Scheme scheme_;
  std::size_t n_symbols_;
  std::size_t n_bpsc_;
  std::size_t cbps_;
  std::vector<std::size_t> interleave_map_;    // write permutation
  std::vector<std::size_t> bitrev_;            // FFT input ordering
  cvec twiddle_;                               // conjugated (IFFT) ROM
  std::vector<int> bin_role_;                  // 0 null, 1 data, 2 pilot
  std::vector<std::size_t> bin_data_index_;    // carrier -> mapped index
  std::vector<std::size_t> bin_pilot_index_;
  cvec pilot_base_;
  double scale_;
  mapping::Constellation mapper_rom_;

  // --- architectural state (registers / RAMs) ---
  Phase phase_ = Phase::kDone;
  std::size_t symbol_ = 0;
  std::size_t counter_ = 0;
  std::size_t fft_level_ = 0;
  std::size_t fft_butterfly_ = 0;
  std::uint8_t scr_state_ = 0x5D;
  std::uint32_t conv_window_ = 0;
  std::uint16_t pilot_lfsr_ = 0x7F;
  double pilot_polarity_ = 1.0;
  std::size_t payload_pos_ = 0;
  bitvec payload_;
  bitvec coded_ram_;
  bitvec inter_ram_;
  cvec fft_ram_;

  // --- outputs ---
  Signal<bool> sample_valid_;
  Signal<cplx> sample_out_;
  Signal<bool> done_;

  Signal<bool>& clk_;
};

/// Convenience driver: build a kernel + clock + WlanTx, run to completion
/// and return the emitted samples together with the kernel statistics.
struct WlanTxRun {
  cvec samples;
  Simulator::Stats stats;
  SimTime finish_time = 0;
};

WlanTxRun run_wlan_tx(mapping::Scheme scheme, std::size_t n_symbols,
                      const bitvec& payload);

}  // namespace ofdm::rtl
