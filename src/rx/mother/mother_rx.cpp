#include "rx/mother/mother_rx.hpp"

#include <algorithm>
#include <cmath>

#include "coding/lfsr.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/pilots.hpp"
#include "core/preamble.hpp"

namespace ofdm::rx {

using core::MappingKind;
using core::OfdmParams;
using core::PreambleKind;

std::string rx_mode_name(RxMode m) {
  switch (m) {
    case RxMode::kCoded: return "coded";
    case RxMode::kUncoded: return "uncoded";
  }
  return "?";
}

std::optional<RxMode> rx_mode_from_name(std::string_view name) {
  if (name == "coded") return RxMode::kCoded;
  if (name == "uncoded") return RxMode::kUncoded;
  return std::nullopt;
}

namespace {

// Coded-chain length bookkeeping mirroring Transmitter::coded_length().
struct ChainLengths {
  std::size_t scrambled_bits;   ///< payload length (scrambling preserves it)
  std::size_t rs_out_bits;      ///< after outer coding (== input if no RS)
  std::size_t punctured_bits;   ///< after inner coding (== rs_out if none)
  std::size_t mother_bits;      ///< unpunctured inner-code length
};

ChainLengths chain_lengths(const OfdmParams& p, std::size_t payload_bits) {
  ChainLengths len{};
  len.scrambled_bits = payload_bits;
  std::size_t bits = payload_bits;
  if (p.fec.rs_enabled) {
    const std::size_t bytes = (bits + 7) / 8;
    const std::size_t blocks =
        std::max<std::size_t>((bytes + p.fec.rs_k - 1) / p.fec.rs_k, 1);
    bits = blocks * p.fec.rs_n * 8;
  }
  len.rs_out_bits = bits;
  if (p.fec.conv_enabled) {
    const std::size_t steps = bits + p.fec.conv.constraint_length - 1;
    len.mother_bits = steps * p.fec.conv.generators.size();
    const auto& pat = p.fec.puncture;
    const std::size_t period = pat.period();
    std::size_t coded = (steps / period) * pat.kept_per_period();
    for (std::size_t r = 0; r < steps % period; ++r) {
      for (const auto& stream : pat.keep) coded += stream[r];
    }
    bits = coded;
  } else {
    len.mother_bits = bits;
  }
  len.punctured_bits = bits;
  return len;
}

}  // namespace

MotherReceiver::MotherReceiver(core::OfdmParams params, RxOptions options)
    : params_(std::move(params)), options_(options) {
  core::validate(params_);
  const OfdmParams& p = params_;
  layout_ = core::make_tone_layout(p);
  fft_ = dsp::Fft(p.fft_size);
  cbps_ = core::coded_bits_per_symbol(p);

  std::size_t used = layout_.used_tones();
  if (p.hermitian) used *= 2;
  scale_ = static_cast<double>(p.fft_size) /
           std::sqrt(static_cast<double>(used));

  switch (p.mapping) {
    case MappingKind::kFixed:
      constellation_ = mapping::Constellation::make(p.scheme);
      break;
    case MappingKind::kDifferential:
      break;  // demapper is per-burst state, created in demodulate()
    case MappingKind::kBitTable:
      dmt_.emplace(p.bit_table);
      break;
  }

  switch (p.interleaver.kind) {
    case core::InterleaverKind::kNone:
      break;
    case core::InterleaverKind::kWlan:
      bit_interleaver_ = coding::make_wlan_interleaver(
          cbps_, mapping::bits_per_symbol(p.scheme));
      break;
    case core::InterleaverKind::kBlock:
      bit_interleaver_ = coding::make_block_interleaver(
          p.interleaver.rows, cbps_ / p.interleaver.rows);
      break;
    case core::InterleaverKind::kCell:
      cell_interleaver_ = coding::make_random_interleaver(
          layout_.data_bins.size(), p.interleaver.seed);
      break;
  }

  if (p.fec.conv_enabled) viterbi_.emplace(p.fec.conv);
  if (p.fec.rs_enabled) rs_.emplace(p.fec.rs_n, p.fec.rs_k);

  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      preamble_len_ = 0;
      break;
    case PreambleKind::kWlan:
      preamble_len_ = 320;
      training_ = core::wlan_ltf_bins();
      break;
    case PreambleKind::kPhaseReference:
      preamble_len_ = p.symbol_len();
      training_ = core::phase_reference_values(p, layout_.data_bins.size());
      break;
  }
}

void MotherReceiver::set_equalizer(cvec per_bin) {
  OFDM_REQUIRE_DIM(per_bin.size() == params_.fft_size,
                   "MotherReceiver::set_equalizer: one coefficient per bin");
  equalizer_ = std::move(per_bin);
}

void MotherReceiver::set_noise_floor(double tone_noise_var) {
  OFDM_REQUIRE(tone_noise_var > 0.0,
               "MotherReceiver::set_noise_floor: variance must be positive");
  noise_floor_ = tone_noise_var;
}

void MotherReceiver::set_noise_from_sample_variance(double sigma2) {
  OFDM_REQUIRE(sigma2 >= 0.0,
               "MotherReceiver::set_noise_from_sample_variance: "
               "variance must be non-negative");
  // An unnormalized N-point forward FFT of white noise with per-sample
  // variance sigma2 has per-bin variance N*sigma2; the demodulator then
  // divides by scale_, so the tone-domain floor is N*sigma2/scale_^2.
  const double n = static_cast<double>(params_.fft_size);
  const double floor = n * sigma2 / (scale_ * scale_);
  noise_floor_ = std::max(floor, 1e-12);
}

bool MotherReceiver::soft_path_active() const {
  return options_.demap == mapping::DemapMode::kSoft &&
         options_.mode == RxMode::kCoded && params_.fec.conv_enabled &&
         params_.mapping == MappingKind::kFixed;
}

std::size_t MotherReceiver::payload_offset() const {
  return params_.frame.null_samples + preamble_len_;
}

// FFT window of the symbol starting at `offset`, descaled and (when
// `equalized`) multiplied by the installed one-tap equalizer.
void MotherReceiver::demod_bins(std::span<const cplx> burst,
                                std::size_t offset, bool equalized,
                                cvec& bins) const {
  const OfdmParams& p = params_;
  const std::size_t n = p.fft_size;
  const std::size_t cp = p.cp_len;
  OFDM_REQUIRE_DIM(offset + cp + n <= burst.size(),
                   "MotherReceiver: burst shorter than expected");
  const std::span<const cplx> window = burst.subspan(offset + cp, n);
  bins.resize(n);
  if (p.hermitian) {
    // Real-baseband standards (DMT/powerline) keep the imaginary lanes
    // bitwise 0.0 through loopback and real-only channels, where the
    // half-size real-input plan kind does the same transform at ~N/2
    // cost. The check must be exact — forward_real discards imaginary
    // parts — so any complex impairment (CFO, fading) falls back to the
    // full complex FFT.
    bool exactly_real = true;
    for (const cplx& v : window) {
      if (v.imag() != 0.0) {
        exactly_real = false;
        break;
      }
    }
    if (exactly_real) {
      fft_.forward_real(window, bins);
    } else {
      fft_.forward(window, bins);
    }
  } else {
    fft_.forward(window, bins);
  }
  const double inv = 1.0 / scale_;
  for (cplx& v : bins) v *= inv;
  if (equalized && !equalizer_.empty()) {
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] *= equalizer_[i];
  }
}

// Common phase error from the pilots of one demodulated symbol:
// returns the unit rotor that re-aligns the data tones.
cplx MotherReceiver::pilot_rotor(const cvec& bins,
                                 const cvec& expected) const {
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < layout_.pilot_bins.size(); ++i) {
    acc += bins[layout_.pilot_bins[i]] * std::conj(expected[i]);
  }
  const double mag = std::abs(acc);
  if (mag < 1e-12) return cplx{1.0, 0.0};
  return std::conj(acc / mag);
}

// The expected-pilot sequence of one burst. Only pilot tracking reads
// it, so without tracking there is none to advance.
std::optional<core::PilotGenerator> MotherReceiver::pilot_generator()
    const {
  std::optional<core::PilotGenerator> pilots;
  if (options_.pilot_tracking) {
    pilots.emplace(params_.pilots, layout_.pilot_bins.size());
  }
  return pilots;
}

// Data cells of one symbol into scratch.data: pilot derotation, then
// the data-bin gather, with the cell deinterleave folded into it
// (cell i is data bin mapping[i]).
void MotherReceiver::extract_symbol(
    const cvec& bins, std::optional<core::PilotGenerator>& pilots,
    Scratch& scratch) const {
  cplx rotor{1.0, 0.0};
  if (pilots) {
    pilots->next_symbol_into(scratch.pilots);
    rotor = pilot_rotor(bins, scratch.pilots);
  }
  cvec& data = scratch.data;
  data.resize(layout_.data_bins.size());
  const std::vector<std::size_t>* cells =
      cell_interleaver_ ? &cell_interleaver_->mapping() : nullptr;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t cell = cells != nullptr ? (*cells)[i] : i;
    data[i] = bins[layout_.data_bins[cell]] * rotor;
  }
}

// Per-cell noise variance for max-log LLRs, fixed for a burst: a
// one-tap equalizer multiplies tone k's noise variance by |eq_k|^2, so
// confident-looking bins on enhanced-noise tones must be de-weighted.
void MotherReceiver::soft_noise(rvec& noise) const {
  noise.resize(layout_.data_bins.size());
  for (std::size_t i = 0; i < noise.size(); ++i) {
    double noise_var = noise_floor_;
    if (!equalizer_.empty()) {
      // Cell interleaving permutes tones; index the equalizer through
      // the same permutation the data went through.
      const std::size_t tone =
          cell_interleaver_ ? cell_interleaver_->mapping()[i] : i;
      noise_var *= std::norm(equalizer_[layout_.data_bins[tone]]);
    }
    noise[i] = std::max(noise_var, 1e-12);
  }
}

cvec MotherReceiver::estimate_equalizer(std::span<const cplx> burst) const {
  cvec eq;
  Scratch scratch;
  estimate_equalizer_into(burst, eq, scratch);
  return eq;
}

void MotherReceiver::train_equalizer(std::span<const cplx> burst,
                                     Scratch& scratch) {
  // The estimate reads the burst only (never the installed equalizer),
  // so it can be written over it.
  estimate_equalizer_into(burst, equalizer_, scratch);
}

void MotherReceiver::estimate_equalizer_into(std::span<const cplx> burst,
                                             cvec& eq,
                                             Scratch& scratch) const {
  const OfdmParams& p = params_;
  eq.assign(p.fft_size, cplx{1.0, 0.0});

  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      return;
    case PreambleKind::kWlan: {
      // Average both long training symbols (T1 at 192, T2 at 256 into
      // the burst) for a 3 dB better estimate. No CP handling: the LTF
      // symbols are plain 64-sample repetitions, and fft_ is 64-point
      // (the WLAN preamble exists only in the 64-point geometry).
      const std::size_t t1 = p.frame.null_samples + 160 + 32;
      OFDM_REQUIRE_DIM(t1 + 128 <= burst.size(),
                       "estimate_equalizer: burst too short for LTF");
      cvec& r1 = scratch.bins;
      cvec& r2 = scratch.data;
      r1.resize(64);
      r2.resize(64);
      fft_.forward(burst.subspan(t1, 64), r1);
      fft_.forward(burst.subspan(t1 + 64, 64), r2);
      for (std::size_t bin = 0; bin < 64; ++bin) {
        const cplx avg = (r1[bin] + r2[bin]) / (2.0 * scale_);
        if (std::abs(training_[bin]) > 0.0 && std::abs(avg) > 1e-12) {
          eq[bin] = training_[bin] / avg;
        }
      }
      return;
    }
    case PreambleKind::kPhaseReference: {
      const cvec& rx = scratch.bins;
      demod_bins(burst, p.frame.null_samples, /*equalized=*/false,
                 scratch.bins);
      for (std::size_t i = 0; i < layout_.data_bins.size(); ++i) {
        const std::size_t bin = layout_.data_bins[i];
        if (std::abs(rx[bin]) > 1e-12) eq[bin] = training_[i] / rx[bin];
      }
      for (std::size_t i = 0; i < layout_.pilot_bins.size(); ++i) {
        const std::size_t bin = layout_.pilot_bins[i];
        if (std::abs(rx[bin]) > 1e-12) {
          eq[bin] = p.pilots.base_values[i] / rx[bin];
        }
      }
      return;
    }
  }
}

SyncReport MotherReceiver::synchronize(std::span<const cplx> stream,
                                       double sample_rate) const {
  const OfdmParams& p = params_;
  SyncReport report;
  if (p.frame.preamble == PreambleKind::kWlan) {
    // Schmidl&Cox plateau on the STF's 16-sample periodicity; require
    // the plateau to persist for half the STF to reject noise spikes.
    const rvec metric = stf_metric(stream);
    constexpr double kThreshold = 0.7;
    constexpr std::size_t kPlateau = 80;
    std::size_t run = 0;
    for (std::size_t i = 0; i < metric.size(); ++i) {
      if (metric[i] > kThreshold) {
        if (++run >= kPlateau) {
          const std::size_t stf = i + 1 - run;
          report.used_preamble = true;
          report.metric = metric[i];
          report.offset =
              stf >= p.frame.null_samples ? stf - p.frame.null_samples : 0;
          if (stf + 16 + 96 + 16 <= stream.size()) {
            report.cfo_hz =
                estimate_cfo(stream, stf + 16, 16, 96, sample_rate);
          }
          return report;
        }
      } else {
        run = 0;
      }
    }
    return report;  // no plateau: metric stays 0
  }
  // Everywhere else: cyclic-prefix correlation. The first strict
  // maximum locks the earliest symbol boundary, which for a clean burst
  // is the first (preamble or payload) OFDM symbol — null guard samples
  // carry no CP energy, so they never win.
  if (p.cp_len == 0 ||
      stream.size() < p.fft_size + p.cp_len) {
    return report;
  }
  const TimingEstimate t =
      cp_timing(stream, p.fft_size, p.cp_len, sample_rate);
  report.metric = t.metric;
  report.cfo_hz = t.cfo_hz;
  report.offset = t.offset >= p.frame.null_samples
                      ? t.offset - p.frame.null_samples
                      : 0;
  return report;
}

std::vector<cvec> MotherReceiver::extract_data_tones(
    std::span<const cplx> burst, std::size_t n_symbols) const {
  std::vector<cvec> out;
  Scratch scratch;
  extract_data_tones_into(burst, n_symbols, out, scratch);
  return out;
}

void MotherReceiver::extract_data_tones_into(std::span<const cplx> burst,
                                             std::size_t n_symbols,
                                             std::vector<cvec>& out,
                                             Scratch& scratch) const {
  out.resize(n_symbols);
  std::optional<core::PilotGenerator> pilots = pilot_generator();
  std::size_t offset = payload_offset();
  for (std::size_t sym = 0; sym < n_symbols; ++sym) {
    demod_bins(burst, offset, /*equalized=*/true, scratch.bins);
    extract_symbol(scratch.bins, pilots, scratch);
    out[sym] = scratch.data;
    offset += params_.symbol_len();
  }
}

MotherReceiver::Result MotherReceiver::demodulate(
    std::span<const cplx> burst, std::size_t payload_bits,
    std::vector<cvec>* data_tones) const {
  Result result;
  Scratch scratch;
  demodulate_into(burst, payload_bits, result, scratch, data_tones);
  return result;
}

void MotherReceiver::demodulate_into(std::span<const cplx> burst,
                                     std::size_t payload_bits,
                                     Result& result, Scratch& ws,
                                     std::vector<cvec>* data_tones) const {
  const OfdmParams& p = params_;
  const ChainLengths len = chain_lengths(p, payload_bits);
  const std::size_t min_syms = p.frame.symbols_per_frame;
  const std::size_t coded_syms = (len.punctured_bits + cbps_ - 1) / cbps_;
  const std::size_t n_symbols = std::max(min_syms, coded_syms);
  const bool uncoded = options_.mode == RxMode::kUncoded;

  result.symbols = n_symbols;
  result.rs_blocks_failed = 0;

  // Differential demapper seeded from the *received* phase reference so
  // a static channel phase cancels out. The scratch's mapper is rebuilt
  // only when it was made for another kind or carrier count.
  std::optional<mapping::DifferentialMapper>& diff = ws.diff;
  if (p.mapping == MappingKind::kDifferential) {
    const std::size_t carriers = layout_.data_bins.size();
    if (!diff || diff->kind() != p.diff_kind ||
        diff->carriers() != carriers) {
      diff.emplace(p.diff_kind, carriers);
    }
    demod_bins(burst, p.frame.null_samples, /*equalized=*/true, ws.bins);
    ws.data.resize(carriers);
    for (std::size_t i = 0; i < ws.data.size(); ++i) {
      ws.data[i] = ws.bins[layout_.data_bins[i]];
    }
    diff->reset(ws.data);
  }

  // 1. Tones -> coded bits (or LLRs on the soft path). The uncoded tap
  // measures the raw channel, symbol padding included; the coded path
  // demaps only the symbols that carry coded bits (sym * cbps below
  // punctured_bits), and without a tone request it skips the padding
  // symbols altogether.
  const bool soft = soft_path_active();
  const std::size_t demap_syms = uncoded ? n_symbols : coded_syms;
  const std::size_t fft_syms = data_tones != nullptr ? n_symbols
                                                     : demap_syms;
  bitvec& coded = uncoded ? result.raw_bits : ws.coded;
  coded.clear();
  ws.soft_coded.clear();
  if (soft) {
    ws.soft_coded.reserve(demap_syms * cbps_);
    soft_noise(ws.noise);
  } else {
    coded.reserve(demap_syms * cbps_);
  }
  std::optional<core::PilotGenerator> pilots = pilot_generator();
  std::size_t offset = payload_offset();
  if (data_tones != nullptr) data_tones->resize(n_symbols);
  for (std::size_t sym = 0; sym < fft_syms; ++sym) {
    demod_bins(burst, offset, /*equalized=*/true, ws.bins);
    offset += p.symbol_len();
    extract_symbol(ws.bins, pilots, ws);
    const cvec& data = ws.data;
    if (data_tones != nullptr) (*data_tones)[sym] = data;
    if (sym >= demap_syms) continue;

    if (soft) {
      constellation_->demap_soft_into(data, ws.noise, ws.sym_llr);
      const std::size_t base = ws.soft_coded.size();
      if (bit_interleaver_) {
        ws.soft_coded.resize(base + ws.sym_llr.size());
        bit_interleaver_->deinterleave_into(
            std::span<const double>(ws.sym_llr),
            std::span<double>(ws.soft_coded).subspan(base));
      } else {
        ws.soft_coded.insert(ws.soft_coded.end(), ws.sym_llr.begin(),
                             ws.sym_llr.end());
      }
      continue;
    }

    switch (p.mapping) {
      case MappingKind::kFixed:
        constellation_->demap_into(data, ws.sym_bits);
        break;
      case MappingKind::kDifferential:
        diff->demap_symbol_into(data, ws.sym_bits);
        break;
      case MappingKind::kBitTable:
        dmt_->demap_symbol_into(data, ws.sym_bits);
        break;
    }
    const std::size_t base = coded.size();
    if (bit_interleaver_) {
      coded.resize(base + ws.sym_bits.size());
      bit_interleaver_->deinterleave_into(
          std::span<const std::uint8_t>(ws.sym_bits),
          std::span<std::uint8_t>(coded).subspan(base));
    } else {
      coded.insert(coded.end(), ws.sym_bits.begin(), ws.sym_bits.end());
    }
  }

  // Uncoded mode measures the raw channel: the pre-FEC coded stream
  // (symbol padding included) against Transmitter::encode_payload.
  if (uncoded) {
    result.payload.clear();
    return;
  }
  result.raw_bits.clear();

  // 2. Inner code.
  bitvec& bits = result.payload;
  if (soft) {
    ws.soft_coded.resize(len.punctured_bits);  // drop symbol padding
    coding::depuncture_soft_into(ws.soft_coded, p.fec.puncture,
                                 len.mother_bits, ws.mother_llr);
    viterbi_->decode_soft_terminated_into(ws.mother_llr, ws.viterbi, bits);
  } else if (p.fec.conv_enabled) {
    coded.resize(len.punctured_bits);
    coding::depuncture_into(coded, p.fec.puncture, len.mother_bits,
                            ws.mother_bits);
    viterbi_->decode_terminated_into(ws.mother_bits, ws.viterbi, bits);
  } else {
    coded.resize(len.punctured_bits);
    bits.assign(coded.begin(), coded.end());
  }
  bits.resize(len.rs_out_bits);

  // 3. Outer code.
  if (p.fec.rs_enabled) {
    bits_to_bytes_msb_into(bits, ws.rs_words);
    ws.message.clear();
    ws.message.reserve(ws.rs_words.size() / rs_->n() * rs_->k());
    for (std::size_t off = 0; off < ws.rs_words.size(); off += rs_->n()) {
      const auto block = std::span<const std::uint8_t>(ws.rs_words)
                             .subspan(off, rs_->n());
      auto decoded = rs_->decode(block);
      if (!decoded.success) {
        ++result.rs_blocks_failed;
        // Fall back to the systematic part.
        decoded.message.assign(block.begin(),
                               block.begin() + static_cast<std::ptrdiff_t>(
                                                   rs_->k()));
      }
      ws.message.insert(ws.message.end(), decoded.message.begin(),
                        decoded.message.end());
    }
    bytes_to_bits_msb_into(ws.message, bits);
  }
  bits.resize(len.scrambled_bits);

  // 4. Descramble.
  if (p.scrambler.enabled) {
    coding::Scrambler scr(p.scrambler.degree, p.scrambler.taps,
                          p.scrambler.seed);
    scr.apply(bits);
  }
}

}  // namespace ofdm::rx
