#include "core/preamble.hpp"

#include <cmath>

#include "coding/lfsr.hpp"
#include "common/error.hpp"
#include "dsp/fft.hpp"

namespace ofdm::core {

namespace {

// Place a logical-indexed (-26..26) value table into natural FFT bins.
cvec to_bins(std::span<const double> re, std::span<const double> im,
             std::size_t fft_size) {
  cvec bins(fft_size, cplx{0.0, 0.0});
  const long n = static_cast<long>(fft_size);
  const long half = static_cast<long>(re.size() / 2);  // 26 for WLAN
  for (long k = -half; k <= half; ++k) {
    const std::size_t idx = static_cast<std::size_t>(k + half);
    bins[static_cast<std::size_t>((k + n) % n)] = {re[idx], im[idx]};
  }
  return bins;
}

}  // namespace

cvec wlan_stf_bins() {
  // IEEE 802.11a-1999 eq. (17-6): S_{-26..26} = sqrt(13/6) * pattern of
  // (1+j)/-(1+j) on every fourth subcarrier.
  const double a = std::sqrt(13.0 / 6.0);
  double re[53] = {};
  double im[53] = {};
  // Logical indices with +(1+j): -24, -16, -4, 12, 16, 20, 24;
  // with -(1+j): -20, -12, -8, 4, 8.
  const long plus[] = {-24, -16, -4, 12, 16, 20, 24};
  const long minus[] = {-20, -12, -8, 4, 8};
  for (long k : plus) {
    re[k + 26] = a;
    im[k + 26] = a;
  }
  for (long k : minus) {
    re[k + 26] = -a;
    im[k + 26] = -a;
  }
  return to_bins(re, im, 64);
}

cvec wlan_ltf_bins() {
  // IEEE 802.11a-1999 eq. (17-8): L_{-26..26}.
  static const double kL[53] = {
      1,  1,  -1, -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  1,  1,
      1,  -1, -1, 1,  1,  -1, 1,  -1, 1,  1,  1,  1,  0,  1,
      -1, -1, 1,  1,  -1, 1,  -1, 1,  -1, -1, -1, -1, -1, 1,
      1,  -1, -1, 1,  -1, 1,  -1, 1,  1,  1,  1};
  double im[53] = {};
  return to_bins(std::span<const double>(kL, 53),
                 std::span<const double>(im, 53), 64);
}

cvec wlan_preamble(const OfdmParams& p) {
  OFDM_REQUIRE(p.fft_size == 64,
               "wlan_preamble: requires the 64-point WLAN geometry");
  // Cheap per-call plan: tables come from the process-wide plan cache.
  dsp::Fft fft(64);

  // Match the data-section scaling: 52 used tones -> scale 64/sqrt(52).
  // The STF's sqrt(13/6) factor then yields equal average power in the
  // short symbols (12 active tones * 52/12 boost).
  const double scale = 64.0 / std::sqrt(52.0);

  cvec stf_time = fft.inverse(wlan_stf_bins());
  cvec ltf_time = fft.inverse(wlan_ltf_bins());
  for (cplx& v : stf_time) v *= scale;
  for (cplx& v : ltf_time) v *= scale;

  cvec out;
  out.reserve(320);
  // t_SHORT: ten repetitions of the 16-sample short symbol.
  for (std::size_t rep = 0; rep < 10; ++rep) {
    for (std::size_t i = 0; i < 16; ++i) out.push_back(stf_time[i]);
  }
  // t_LONG: 32-sample guard (tail of the long symbol) + two full repeats.
  for (std::size_t i = 0; i < 32; ++i) out.push_back(ltf_time[32 + i]);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    out.insert(out.end(), ltf_time.begin(), ltf_time.end());
  }
  return out;
}

cvec phase_reference_values(const OfdmParams& p, std::size_t count) {
  coding::Lfsr prbs(15, (std::uint64_t{1} << 14) | 1u,
                    p.frame.phase_ref_seed | 1u);
  cvec out(count);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  for (cplx& v : out) {
    const std::uint64_t b = prbs.next(2);
    v = {(b & 2u) != 0 ? inv_sqrt2 : -inv_sqrt2,
         (b & 1u) != 0 ? inv_sqrt2 : -inv_sqrt2};
  }
  return out;
}

}  // namespace ofdm::core
