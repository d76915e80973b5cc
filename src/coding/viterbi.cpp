#include "coding/viterbi.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm::coding {
namespace {

// Unreachable states start here. Every real path metric is strictly
// smaller, so an unreachable predecessor never wins a compare.
constexpr double kUnreached = 1e300;
// Branch metrics are tabulated this many steps at a time.
constexpr std::size_t kChunk = 64;
// 2^n_out entries per step; validate() caps n_out at 4.
constexpr std::size_t kMaxBm = 16;

}  // namespace

ViterbiDecoder::ViterbiDecoder(ConvCode code) : code_(std::move(code)) {
  validate(code_);
  const std::size_t states = code_.num_states();
  branch_.resize(2 * states);
  for (std::uint32_t ns = 0; ns < states; ++ns) {
    for (std::uint32_t p = 0; p < 2; ++p) {
      // The branch from s0 + p into ns sees the shift-register window
      // (ns << 1) | p: the input bit on top, the old state s0 + p below.
      const std::uint32_t window = (ns << 1) | p;
      std::uint32_t packed = 0;
      for (std::size_t j = 0; j < code_.generators.size(); ++j) {
        packed |= static_cast<std::uint32_t>(
                      std::popcount(window & code_.generators[j]) & 1)
                  << j;
      }
      branch_[p * states + ns] = packed;
    }
  }
}

template <typename FillBm>
void ViterbiDecoder::run(std::size_t steps, const FillBm& fill,
                         Scratch& scratch, bitvec& out) const {
  const std::size_t states = code_.num_states();
  const std::size_t half = states / 2;
  const std::size_t n_bm = std::size_t{1} << code_.num_outputs();
  const std::size_t words = (states + 63) / 64;
  const std::size_t tail = code_.constraint_length - 1;
  OFDM_REQUIRE_DIM(steps >= tail,
                   "Viterbi: terminated code word shorter than tail");

  std::vector<double>& metric = scratch.metric;
  metric.assign(states, kUnreached);
  metric[0] = 0.0;  // encoders start from the zero state
  // Every word is written by the kernel (it clears a step's words
  // before setting bits), so stale contents need no zeroing.
  std::vector<std::uint64_t>& dec = scratch.decisions;
  dec.resize(steps * words);
  double bm[kChunk * kMaxBm];
  const simd::Kernels& kernels = simd::kernels();
  for (std::size_t t0 = 0; t0 < steps; t0 += kChunk) {
    const std::size_t n = std::min(kChunk, steps - t0);
    for (std::size_t t = 0; t < n; ++t) fill(t0 + t, bm + t * n_bm);
    kernels.viterbi_acs(metric.data(), states, branch_.data(), bm, n_bm, n,
                        dec.data() + t0 * words);
  }

  // The traceback starts from the zero state that terminates the code
  // word. State s after step t was entered with input bit s >> (K-2),
  // from predecessor 2*(s mod half) plus its decision bit.
  std::size_t s = 0;
  const unsigned top = code_.constraint_length - 2;
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(s >> top);
    const std::uint64_t bit = (dec[t * words + s / 64] >> (s % 64)) & 1u;
    s = 2 * (s % half) + bit;
  }
  out.resize(steps - tail);  // strip the (K-1) tail bits
}

void ViterbiDecoder::decode_terminated_into(
    std::span<const std::uint8_t> coded, Scratch& scratch,
    bitvec& out) const {
  const unsigned n_out = code_.num_outputs();
  OFDM_REQUIRE_DIM(coded.size() % n_out == 0,
                   "Viterbi: coded length not a multiple of output count");
  const std::size_t n_bm = std::size_t{1} << n_out;
  // Hamming distance from the received bits to each expected output.
  run(coded.size() / n_out,
      [&](std::size_t t, double* bm) {
        const std::uint8_t* r = coded.data() + t * n_out;
        for (std::size_t e = 0; e < n_bm; ++e) {
          double d = 0.0;
          for (unsigned j = 0; j < n_out; ++j) {
            if (r[j] != kErasure && ((e >> j) & 1u) != (r[j] & 1u)) {
              d += 1.0;
            }
          }
          bm[e] = d;
        }
      },
      scratch, out);
}

void ViterbiDecoder::decode_soft_terminated_into(
    std::span<const double> llr, Scratch& scratch, bitvec& out) const {
  const unsigned n_out = code_.num_outputs();
  OFDM_REQUIRE_DIM(llr.size() % n_out == 0,
                   "Viterbi: LLR length not a multiple of output count");
  const std::size_t n_bm = std::size_t{1} << n_out;
  // Correlation metric: expected bit 1 pays +llr, bit 0 pays -llr;
  // minimizing the sum is maximum-likelihood for llr = log P(0)/P(1).
  run(llr.size() / n_out,
      [&](std::size_t t, double* bm) {
        const double* l = llr.data() + t * n_out;
        for (std::size_t e = 0; e < n_bm; ++e) {
          double c = 0.0;
          for (unsigned j = 0; j < n_out; ++j) {
            c += ((e >> j) & 1u) ? l[j] : -l[j];
          }
          bm[e] = c;
        }
      },
      scratch, out);
}

}  // namespace ofdm::coding
