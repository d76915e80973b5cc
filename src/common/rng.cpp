#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64 seeds the xoshiro state so that nearby seeds give unrelated
// streams.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng Rng::substream(std::uint64_t campaign_seed, std::uint64_t point_index,
                   std::uint64_t trial_index) {
  // Chain the splitmix64 finalizer over the counters: each stage fully
  // avalanches before the next counter is folded in, so neighbouring
  // (point, trial) pairs land on unrelated xoshiro states.
  std::uint64_t st = campaign_seed;
  std::uint64_t h = splitmix64(st);
  st = h ^ point_index;
  h = splitmix64(st);
  st = h ^ trial_index;
  h = splitmix64(st);
  return Rng(h);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  OFDM_REQUIRE(n > 0, "uniform_int: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

double Rng::gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = r * std::sin(kTwoPi * u2);
  have_cached_gaussian_ = true;
  return r * std::cos(kTwoPi * u2);
}

cplx Rng::complex_gaussian(double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  return {sigma * gaussian(), sigma * gaussian()};
}

void Rng::gaussian_fill(std::span<double> out) {
  std::size_t i = 0;
  if (i < out.size() && have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    out[i++] = cached_gaussian_;
  }
  // Whole Box-Muller pairs land directly in the buffer: the scalar
  // path's cos draw followed by its cached sin draw.
  while (i + 2 <= out.size()) {
    double u1;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    out[i] = r * std::cos(kTwoPi * u2);
    out[i + 1] = r * std::sin(kTwoPi * u2);
    i += 2;
  }
  // Odd element: draw a full pair and leave the sin half cached,
  // exactly as gaussian() would.
  if (i < out.size()) out[i] = gaussian();
}

void Rng::complex_gaussian_fill(std::span<cplx> out, double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  gaussian_fill({reinterpret_cast<double*>(out.data()), out.size() * 2});
  simd::kernels().cvec_scale(out.data(), sigma, out.data(), out.size());
}

std::uint8_t Rng::bit() { return static_cast<std::uint8_t>(next_u64() & 1u); }

bitvec Rng::bits(std::size_t n) {
  bitvec out(n);
  bits_into(out);
  return out;
}

void Rng::bits_into(std::span<std::uint8_t> out) {
  for (auto& b : out) b = bit();
}

bytevec Rng::bytes(std::size_t n) {
  bytevec out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(next_u64() & 0xFFu);
  return out;
}

void Rng::save(StateWriter& w) const {
  for (std::uint64_t word : s_) w.u64(word);
  w.u8(have_cached_gaussian_ ? 1 : 0);
  w.f64(cached_gaussian_);
}

void Rng::load(StateReader& r) {
  for (std::uint64_t& word : s_) word = r.u64();
  have_cached_gaussian_ = r.u8() != 0;
  cached_gaussian_ = r.f64();
}

}  // namespace ofdm
