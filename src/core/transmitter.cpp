#include "core/transmitter.hpp"

#include <algorithm>

#include "coding/interleaver.hpp"
#include "coding/lfsr.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/viterbi.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/preamble.hpp"
#include "obs/trace.hpp"

namespace ofdm::core {

struct Transmitter::State {
  OfdmParams params;
  ToneLayout layout;
  std::optional<Modulator> modulator;
  std::optional<mapping::Constellation> constellation;
  std::optional<mapping::DmtMapper> dmt;
  std::optional<mapping::DifferentialMapper> diff;
  std::optional<coding::PermutationInterleaver> bit_interleaver;
  std::optional<coding::PermutationInterleaver> cell_interleaver;
  std::optional<coding::ConvEncoder> conv;
  std::optional<coding::ReedSolomon> rs;
  std::optional<PilotGenerator> pilots;
  std::size_t cbps = 0;
  cvec preamble;  ///< WLAN training samples, fixed per configuration
  cvec ref_data;  ///< phase-reference data cells, fixed per configuration

  /// Intermediate streams of one encode() call.
  struct EncodeScratch {
    bitvec bits;         ///< scrambled (and RS-coded) bits
    bytevec bytes;       ///< RS input bytes
    bytevec rs_coded;    ///< RS code words
  };
  /// The bit pipeline (scramble, RS, convolutional code, puncture, pad to
  /// `target` bits) into `out`.
  void encode(std::span<const std::uint8_t> payload_bits, std::size_t target,
              EncodeScratch& ws, bitvec& out) const;

  // Scratch for the batched transmit path; grows once, reused across
  // bursts.
  cvec mapped_all;       ///< whole-stream block map (fast path)
  cvec data_scratch;     ///< per-symbol tone values
  cvec cells_scratch;    ///< per-symbol tone values before cell interleave
  bitvec bits_scratch;   ///< per-symbol interleaved bits
  cvec pilot_scratch;    ///< per-symbol pilot values
  EncodeScratch encode_scratch;
  bitvec coded;          ///< the current burst's coded stream
};

Transmitter::Transmitter() = default;
Transmitter::~Transmitter() = default;
Transmitter::Transmitter(Transmitter&&) noexcept = default;
Transmitter& Transmitter::operator=(Transmitter&&) noexcept = default;

Transmitter::Transmitter(OfdmParams params) { configure(std::move(params)); }

void Transmitter::configure(OfdmParams params) {
  validate(params);
  auto s = std::make_unique<State>();
  s->params = std::move(params);
  const OfdmParams& p = s->params;
  s->layout = make_tone_layout(p);
  s->modulator.emplace(s->params, s->layout);
  s->cbps = coded_bits_per_symbol(p);

  switch (p.mapping) {
    case MappingKind::kFixed:
      s->constellation = mapping::Constellation::make(p.scheme);
      break;
    case MappingKind::kDifferential:
      s->diff.emplace(p.diff_kind, s->layout.data_bins.size());
      break;
    case MappingKind::kBitTable:
      s->dmt.emplace(p.bit_table);
      break;
  }

  switch (p.interleaver.kind) {
    case InterleaverKind::kNone:
      break;
    case InterleaverKind::kWlan:
      s->bit_interleaver = coding::make_wlan_interleaver(
          s->cbps, mapping::bits_per_symbol(p.scheme));
      break;
    case InterleaverKind::kBlock:
      s->bit_interleaver = coding::make_block_interleaver(
          p.interleaver.rows, s->cbps / p.interleaver.rows);
      break;
    case InterleaverKind::kCell:
      s->cell_interleaver = coding::make_random_interleaver(
          s->layout.data_bins.size(), p.interleaver.seed);
      break;
  }

  if (p.fec.conv_enabled) s->conv.emplace(p.fec.conv);
  if (p.fec.rs_enabled) s->rs.emplace(p.fec.rs_n, p.fec.rs_k);
  s->pilots.emplace(p.pilots, s->layout.pilot_bins.size());
  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      break;
    case PreambleKind::kWlan:
      s->preamble = wlan_preamble(p);
      break;
    case PreambleKind::kPhaseReference:
      s->ref_data = phase_reference_values(p, s->layout.data_bins.size());
      break;
  }

  state_ = std::move(s);  // commit only after everything succeeded
}

bool Transmitter::configured() const { return state_ != nullptr; }

namespace {
const char* kUnconfigured = "Transmitter: configure() first";
}

const OfdmParams& Transmitter::params() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->params;
}

const ToneLayout& Transmitter::layout() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->layout;
}

double Transmitter::tone_scale() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->modulator->tone_scale();
}

std::size_t Transmitter::bits_per_symbol() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->cbps;
}

std::size_t Transmitter::coded_length(std::size_t payload_bits) const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const OfdmParams& p = state_->params;
  std::size_t bits = payload_bits;
  if (p.fec.rs_enabled) {
    const std::size_t bytes = (bits + 7) / 8;
    const std::size_t blocks = (bytes + p.fec.rs_k - 1) / p.fec.rs_k;
    bits = std::max<std::size_t>(blocks, 1) * p.fec.rs_n * 8;
  }
  if (p.fec.conv_enabled) {
    const std::size_t steps = bits + p.fec.conv.constraint_length - 1;
    const auto& pat = state_->params.fec.puncture;
    const std::size_t period = pat.period();
    const std::size_t kept = pat.kept_per_period();
    std::size_t coded = (steps / period) * kept;
    for (std::size_t r = 0; r < steps % period; ++r) {
      for (const auto& stream : pat.keep) coded += stream[r];
    }
    bits = coded;
  }
  // Pad to whole symbols, at least the configured frame length.
  const std::size_t min_syms = state_->params.frame.symbols_per_frame;
  const std::size_t syms =
      std::max(min_syms, (bits + state_->cbps - 1) / state_->cbps);
  return syms * state_->cbps;
}

std::size_t Transmitter::recommended_payload_bits() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  const std::size_t capacity =
      state_->params.frame.symbols_per_frame * state_->cbps;
  // coded_length() is monotone in the payload size; find the largest
  // payload that still fits the configured frame.
  std::size_t lo = 0;
  std::size_t hi = capacity;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (coded_length(mid) <= capacity) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

bitvec Transmitter::encode_payload(
    std::span<const std::uint8_t> payload_bits) const {
  OFDM_REQUIRE(state_, kUnconfigured);
  State::EncodeScratch ws;
  bitvec out;
  state_->encode(payload_bits, coded_length(payload_bits.size()), ws, out);
  return out;
}

const bitvec& Transmitter::last_coded_bits() const {
  OFDM_REQUIRE(state_, kUnconfigured);
  return state_->coded;
}

void Transmitter::State::encode(std::span<const std::uint8_t> payload_bits,
                                std::size_t target, EncodeScratch& ws,
                                bitvec& out) const {
  const OfdmParams& p = params;
  // The convolutional code reads the stream from ws.bits and writes the
  // result; without one, every stage works in `out` directly.
  bitvec& bits = conv ? ws.bits : out;
  bits.assign(payload_bits.begin(), payload_bits.end());

  if (p.scrambler.enabled) {
    coding::Scrambler scr(p.scrambler.degree, p.scrambler.taps,
                          p.scrambler.seed);
    scr.apply(bits);
  }

  // Filler PRBS: frame padding (RS block fill and whole-symbol fill)
  // carries pseudo-random bits, not zeros — a run of zero bits would map
  // to constellation corner points and skew the transmit power, whereas
  // the real standards keep padding energy-dispersed. The receiver
  // truncates the padding away, so the exact sequence only needs to be
  // deterministic.
  coding::Lfsr filler(15, (std::uint64_t{1} << 14) | 1u, 0x2A2A);

  if (rs) {
    filler.append(bits, (8 - bits.size() % 8) % 8);
    bits_to_bytes_msb_into(bits, ws.bytes);
    const std::size_t k = rs->k();
    const std::size_t blocks =
        std::max<std::size_t>((ws.bytes.size() + k - 1) / k, 1);
    while (ws.bytes.size() < blocks * k) {
      ws.bytes.push_back(static_cast<std::uint8_t>(filler.next(8)));
    }
    ws.rs_coded.clear();
    ws.rs_coded.reserve(blocks * rs->n());
    for (std::size_t off = 0; off < ws.bytes.size(); off += k) {
      const bytevec block = rs->encode(
          std::span<const std::uint8_t>(ws.bytes).subspan(off, k));
      ws.rs_coded.insert(ws.rs_coded.end(), block.begin(), block.end());
    }
    bytes_to_bits_msb_into(ws.rs_coded, bits);
  }

  if (conv) conv->encode_punctured_into(bits, p.fec.puncture, out);

  OFDM_REQUIRE(out.size() <= target,
               "Transmitter: internal coded-length mismatch");
  filler.append(out, target - out.size());
}

Transmitter::Burst Transmitter::modulate(
    std::span<const std::uint8_t> payload_bits) {
  Burst burst;
  modulate_into(payload_bits, burst);
  return burst;
}

void Transmitter::modulate_into(std::span<const std::uint8_t> payload_bits,
                                Burst& burst) {
  OFDM_REQUIRE(state_, kUnconfigured);
  obs::ScopedSpan span("Transmitter::modulate");
  State& s = *state_;
  const OfdmParams& p = s.params;

  burst.samples.clear();  // keeps capacity for burst reuse
  burst.payload_bits = payload_bits.size();
  burst.null_samples = 0;
  burst.preamble_samples = 0;

  s.encode(payload_bits, coded_length(payload_bits.size()),
           s.encode_scratch, s.coded);
  const bitvec& coded = s.coded;
  burst.coded_bits = coded.size();
  burst.data_symbols = coded.size() / s.cbps;

  s.modulator->reset();
  s.pilots->reset();

  cvec& out = burst.samples;
  out.reserve(p.frame.null_samples +
              (burst.data_symbols + 2) * p.symbol_len());

  // 1. Null symbol (DAB-style leading silence).
  if (p.frame.null_samples > 0) {
    s.modulator->emit_silence(p.frame.null_samples, out);
    burst.null_samples = p.frame.null_samples;
  }

  // 2. Preamble / phase reference.
  switch (p.frame.preamble) {
    case PreambleKind::kNone:
      break;
    case PreambleKind::kWlan:
      s.modulator->emit_raw(s.preamble, out);
      burst.preamble_samples = s.preamble.size();
      break;
    case PreambleKind::kPhaseReference: {
      const std::size_t before = out.size();
      s.modulator->modulate_symbol(s.ref_data, p.pilots.base_values, out);
      burst.preamble_samples = out.size() - before;
      if (s.diff) s.diff->reset(s.ref_data);
      break;
    }
  }

  // 3. Payload symbols. Bits -> tone values is inherently sequential
  // (differential mapping and the pilot PRBS carry state from symbol to
  // symbol).
  //
  // Fixed-constellation configurations with no interleaving have no
  // per-symbol bit machinery at all, so the whole coded stream is
  // block-mapped in one kernel sweep and each symbol just takes a view
  // of its slice — the same values a per-symbol map_into would give.
  const std::size_t n_data = s.layout.data_bins.size();
  const bool block_map = p.mapping == MappingKind::kFixed &&
                         !s.bit_interleaver && !s.cell_interleaver;
  if (block_map) s.constellation->map_into(coded, s.mapped_all);

  auto map_symbol_into = [&](std::size_t sym, cvec& dst) {
    const auto sym_bits = std::span<const std::uint8_t>(coded).subspan(
        sym * s.cbps, s.cbps);

    // Per-symbol bit interleaving.
    std::span<const std::uint8_t> mapped_bits = sym_bits;
    if (s.bit_interleaver) {
      s.bits_scratch.resize(sym_bits.size());
      s.bit_interleaver->interleave_into(
          sym_bits, std::span<std::uint8_t>(s.bits_scratch));
      mapped_bits = s.bits_scratch;
    }

    // Bits -> tone values; cell interleaving then permutes them across
    // the data tones.
    cvec& cells = s.cell_interleaver ? s.cells_scratch : dst;
    switch (p.mapping) {
      case MappingKind::kFixed:
        s.constellation->map_into(mapped_bits, cells);
        break;
      case MappingKind::kDifferential:
        s.diff->map_symbol_into(mapped_bits, cells);
        break;
      case MappingKind::kBitTable:
        s.dmt->map_symbol_into(mapped_bits, cells);
        break;
    }
    if (s.cell_interleaver) {
      dst.resize(cells.size());
      s.cell_interleaver->interleave_into(std::span<const cplx>(cells),
                                          std::span<cplx>(dst));
    }
  };

  for (std::size_t sym = 0; sym < burst.data_symbols; ++sym) {
    std::span<const cplx> data_values;
    if (block_map) {
      data_values = std::span<const cplx>(s.mapped_all)
                        .subspan(sym * n_data, n_data);
    } else {
      map_symbol_into(sym, s.data_scratch);
      data_values = s.data_scratch;
    }
    s.pilots->next_symbol_into(s.pilot_scratch);
    s.modulator->modulate_symbol(data_values, s.pilot_scratch, out);
  }

  s.modulator->flush(out);
}

}  // namespace ofdm::core
