// The RX Mother Model: the receiver counterpart of core::Transmitter.
//
// One parameter-driven receiver family — sync -> CP removal -> FFT ->
// equalization -> (hard|soft) demap -> deinterleave -> depuncture ->
// soft-decision Viterbi and/or Reed-Solomon decode -> descramble —
// reconfigured from the same OfdmParams that drive the TX side, so any
// member of the ten-standard family is an instance of it. It is the
// one receiver every caller — tests, benches, examples, campaigns and
// the WLAN acquisition front end — decodes with.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "coding/interleaver.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/viterbi.hpp"
#include "core/params.hpp"
#include "core/pilots.hpp"
#include "dsp/fft.hpp"
#include "mapping/differential.hpp"
#include "rx/mother/rx_mode.hpp"
#include "rx/sync.hpp"

namespace ofdm::rx {

struct RxOptions {
  RxMode mode = RxMode::kCoded;
  /// kSoft engages max-log LLR demapping + soft Viterbi on standards
  /// where the soft path applies (fixed constellation with an inner
  /// convolutional code); elsewhere the hard path is kept silently.
  mapping::DemapMode demap = mapping::DemapMode::kHard;
  bool pilot_tracking = false;
};

/// Timing/CFO acquisition report from synchronize().
struct SyncReport {
  std::size_t offset = 0;    ///< estimated start of the burst's payload ramp
  double metric = 0.0;       ///< normalized correlation peak in [0, 1]
  double cfo_hz = 0.0;       ///< fractional CFO estimate
  bool used_preamble = false;  ///< STF plateau (true) vs CP correlation
};

class MotherReceiver {
 public:
  explicit MotherReceiver(core::OfdmParams params, RxOptions options = {});

  const core::OfdmParams& params() const { return params_; }
  const RxOptions& options() const { return options_; }

  void set_mode(RxMode m) { options_.mode = m; }
  void set_demap(mapping::DemapMode m) { options_.demap = m; }
  void set_pilot_tracking(bool on) { options_.pilot_tracking = on; }

  /// One-tap frequency-domain equalizer, one coefficient per FFT bin
  /// (natural order). Received tones are *multiplied* by it.
  void set_equalizer(cvec per_bin);
  void clear_equalizer() { equalizer_.clear(); }

  /// Tone-domain noise variance used to normalize soft LLRs
  /// (LLR = (d1^2 - d0^2)/sigma_tone^2, further weighted per tone by
  /// |eq_k|^2). Defaults to 1.0; the max-log Viterbi is scale-invariant,
  /// so this matters to anything consuming *absolute* LLRs.
  void set_noise_floor(double tone_noise_var);

  /// Convenience: derive the tone-domain floor from the time-domain
  /// per-sample complex noise variance sigma2 (the AWGN block's power),
  /// folding in the demodulator's FFT descale.
  void set_noise_from_sample_variance(double sigma2);

  /// True when demodulate() will take the LLR + soft-Viterbi path.
  bool soft_path_active() const;

  /// Estimate an equalizer from the burst's own training section (the
  /// 802.11a LTF or the phase-reference symbol). Returns the per-bin
  /// coefficients; does not install them.
  cvec estimate_equalizer(std::span<const cplx> burst) const;

  /// Acquire burst timing (and a fractional CFO estimate) from a sample
  /// stream: Schmidl&Cox STF plateau for WLAN-preamble standards, CP
  /// correlation everywhere else. The returned offset points at the
  /// start of the burst (null samples included), suitable for
  /// `stream.subspan(offset)` into demodulate().
  SyncReport synchronize(std::span<const cplx> stream,
                         double sample_rate) const;

  struct Result {
    bitvec payload;   ///< decoded payload (kCoded; empty in kUncoded)
    bitvec raw_bits;  ///< pre-FEC hard bits, symbols*cbps (kUncoded)
    std::size_t symbols = 0;
    std::size_t rs_blocks_failed = 0;  ///< uncorrectable outer blocks
  };

  /// Caller-owned buffers for demodulate_into() and
  /// extract_data_tones_into(): every symbol- and burst-sized vector of
  /// one call. They keep their capacity across calls, so a warm call
  /// allocates nothing burst-sized; no value carries over from one call
  /// to the next.
  struct Scratch {
    cvec bins;           ///< one symbol's FFT bins
    cvec data;           ///< one symbol's data cells
    cvec pilots;         ///< one symbol's expected pilots
    rvec noise;          ///< per-cell noise variance for soft demap
    rvec sym_llr;        ///< one symbol's LLRs
    bitvec sym_bits;     ///< one symbol's hard bits
    bitvec coded;        ///< hard coded stream (kCoded)
    rvec soft_coded;     ///< soft coded stream
    rvec mother_llr;     ///< depunctured LLRs
    bitvec mother_bits;  ///< depunctured hard bits
    coding::ViterbiDecoder::Scratch viterbi;
    bytevec rs_words;    ///< outer code words
    bytevec message;     ///< outer-decoded message bytes
    /// Differential demapper, re-seeded from each burst's phase
    /// reference.
    std::optional<mapping::DifferentialMapper> diff;
  };

  /// Demodulate a burst produced by Transmitter::modulate() for
  /// `payload_bits` payload bits, honoring options().mode. A non-null
  /// `data_tones` receives the equalized data cells of every payload
  /// symbol of the burst, the same values extract_data_tones() returns.
  Result demodulate(std::span<const cplx> burst, std::size_t payload_bits,
                    std::vector<cvec>* data_tones = nullptr) const;

  /// demodulate() into a caller-owned Result, with every intermediate
  /// buffer in `scratch`: bit-identical output, and no burst-sized
  /// allocation once `out`, `scratch` and `data_tones` are warm.
  void demodulate_into(std::span<const cplx> burst,
                       std::size_t payload_bits, Result& out,
                       Scratch& scratch,
                       std::vector<cvec>* data_tones = nullptr) const;

  /// Equalized constellation-domain data cells per payload symbol —
  /// the input to EVM measurements.
  std::vector<cvec> extract_data_tones(std::span<const cplx> burst,
                                       std::size_t n_symbols) const;

  /// extract_data_tones() into caller-owned buffers.
  void extract_data_tones_into(std::span<const cplx> burst,
                               std::size_t n_symbols,
                               std::vector<cvec>& out,
                               Scratch& scratch) const;

  /// set_equalizer(estimate_equalizer(burst)) in place: the estimate is
  /// written over the installed equalizer's storage.
  void train_equalizer(std::span<const cplx> burst, Scratch& scratch);

  /// Sample offset of the first payload symbol within a burst.
  std::size_t payload_offset() const;

 private:
  void demod_bins(std::span<const cplx> burst, std::size_t offset,
                  bool equalized, cvec& bins) const;
  cplx pilot_rotor(const cvec& bins, const cvec& expected) const;
  void extract_symbol(const cvec& bins,
                      std::optional<core::PilotGenerator>& pilots,
                      Scratch& scratch) const;
  std::optional<core::PilotGenerator> pilot_generator() const;
  void soft_noise(rvec& noise) const;
  void estimate_equalizer_into(std::span<const cplx> burst, cvec& eq,
                               Scratch& scratch) const;

  core::OfdmParams params_;
  RxOptions options_;
  core::ToneLayout layout_;
  dsp::Fft fft_{64};
  double scale_ = 1.0;
  double noise_floor_ = 1.0;
  std::optional<mapping::Constellation> constellation_;
  std::optional<mapping::DmtMapper> dmt_;
  std::optional<coding::PermutationInterleaver> bit_interleaver_;
  std::optional<coding::PermutationInterleaver> cell_interleaver_;
  std::optional<coding::ViterbiDecoder> viterbi_;
  std::optional<coding::ReedSolomon> rs_;
  std::size_t cbps_ = 0;
  std::size_t preamble_len_ = 0;
  cvec training_;   // known training cells: LTF bins or phase reference
  cvec equalizer_;  // empty = identity
};

}  // namespace ofdm::rx
