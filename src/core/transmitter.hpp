// The Mother Model: a single behavioural OFDM transmitter that any member
// of the ten-standard family is an instance of.
//
// configure() is the paper's reconfiguration step — handing the model a
// different OfdmParams *is* the changeover from one standard to another.
// modulate() runs the complete digital baseband of the configured
// standard: scramble -> FEC -> interleave -> map -> pilot/frame assembly
// -> IFFT -> cyclic prefix -> windowing.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "core/modulator.hpp"
#include "core/params.hpp"
#include "core/pilots.hpp"
#include "mapping/bitloading.hpp"
#include "mapping/constellation.hpp"
#include "mapping/differential.hpp"

namespace ofdm::coding {
class PermutationInterleaver;
}

namespace ofdm::core {

class Transmitter {
 public:
  /// An unconfigured Mother Model; call configure() before use.
  Transmitter();
  ~Transmitter();
  Transmitter(Transmitter&&) noexcept;
  Transmitter& operator=(Transmitter&&) noexcept;

  explicit Transmitter(OfdmParams params);

  /// Reconfigure to a (possibly different) standard. Validates the
  /// parameter set and rebuilds all derived machinery; throws
  /// ofdm::ConfigError on inconsistent parameters, leaving the previous
  /// configuration intact.
  void configure(OfdmParams params);

  bool configured() const;
  const OfdmParams& params() const;
  const ToneLayout& layout() const;

  /// IFFT output scale (the receiver divides by this).
  double tone_scale() const;

  /// One modulated burst (frame) of baseband samples plus bookkeeping.
  struct Burst {
    cvec samples;
    std::size_t payload_bits = 0;
    std::size_t coded_bits = 0;       ///< after FEC and padding
    std::size_t data_symbols = 0;
    std::size_t null_samples = 0;     ///< leading silence
    std::size_t preamble_samples = 0; ///< training/phase-ref samples
    /// Sample index where payload symbol s begins.
    std::size_t symbol_start(std::size_t s, const OfdmParams& p) const {
      return null_samples + preamble_samples + s * p.symbol_len();
    }
  };

  /// Modulate a payload. The frame stretches to as many OFDM symbols as
  /// the coded payload needs (at least frame.symbols_per_frame).
  Burst modulate(std::span<const std::uint8_t> payload_bits);

  /// modulate() into a caller-owned Burst whose buffers are reused
  /// across calls (samples keep their capacity). Bit-identical output;
  /// this is the amortized path Monte-Carlo trial loops should use.
  void modulate_into(std::span<const std::uint8_t> payload_bits,
                     Burst& burst);

  /// Largest payload that fits frame.symbols_per_frame symbols exactly.
  std::size_t recommended_payload_bits() const;

  /// Coded-stream length (bits) the FEC chain produces for a payload,
  /// after padding to whole OFDM symbols.
  std::size_t coded_length(std::size_t payload_bits) const;

  /// Coded bits carried per OFDM symbol in this configuration.
  std::size_t bits_per_symbol() const;

  /// The bit pipeline alone (scramble + FEC + pad); exposed for tests
  /// and the RT-level cross-check.
  bitvec encode_payload(std::span<const std::uint8_t> payload_bits) const;

  /// The coded stream of the last modulate() or modulate_into() call:
  /// encode_payload() of its payload, held rather than encoded again.
  const bitvec& last_coded_bits() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ofdm::core
