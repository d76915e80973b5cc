#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dsp/simd/dispatch.hpp"

namespace ofdm::dsp {

namespace {

// ---------------------------------------------------------------------------
// Immutable table sets (shared across plans via the process-wide cache)

/// Split-radix power-of-two tables: `perm` is the mixed digit-reversal
/// gather permutation of the recursive [evens | odd1 | odd3] layout,
/// `quads`/`pairs` list the output offsets of the trivial-twiddle base
/// units the gather pass fuses in, and `levels` holds the combine
/// schedule in ascending block size (8 ... n, the last entry being the
/// single full-size block). Twiddles are two contiguous planes per level
/// (all W^j, then all W^{3j}) so the SIMD combine loops load them
/// sequentially. Sizes 1, 2 and 4 have no level: their single base unit
/// (none for n == 1) is the whole transform.
struct PowTables {
  std::size_t n = 0;

  struct Level {
    std::size_t n4 = 0;      // block size / 4
    std::size_t tw_off = 0;  // offset of this level's twiddle planes
    std::vector<std::uint32_t> offsets;
  };
  std::vector<std::uint32_t> perm;
  std::vector<std::uint32_t> quads;
  std::vector<std::uint32_t> pairs;
  cvec sr_tw;      // per-level [W^j | W^{3j}] planes, W = e^{-2πi/size}
  cvec sr_tw_inv;  // conjugate table for the inverse
  std::vector<Level> levels;
};

PowTables build_split_radix(std::size_t n) {
  PowTables t;
  t.n = n;
  t.perm.resize(n);
  if (n == 1) return t;  // no base unit: execute_pow copies the sample
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;

  // Recursive split-radix layout: a length-len sub-transform over the
  // decimated signal x[in_base + stride*i] lands at [out_base,
  // out_base+len) as [evens | odd1 | odd3]; every non-base length
  // contributes one combine job to its level. Base units (len 4 / 2)
  // have only trivial twiddles and are fused into the gather pass.
  std::vector<std::vector<std::uint32_t>> offs_by_log(log2n + 1);
  auto fill = [&](auto&& self, std::size_t out_base, std::size_t len,
                  std::size_t lg, std::size_t stride,
                  std::size_t in_base) -> void {
    if (len == 2) {
      t.perm[out_base] = static_cast<std::uint32_t>(in_base);
      t.perm[out_base + 1] = static_cast<std::uint32_t>(in_base + stride);
      t.pairs.push_back(static_cast<std::uint32_t>(out_base));
      return;
    }
    if (len == 4) {
      // Gathered unit order (x0, x2, x1, x3) of the sub-signal: the
      // 4-point DFT unit butterflies its even pair first.
      t.perm[out_base] = static_cast<std::uint32_t>(in_base);
      t.perm[out_base + 1] =
          static_cast<std::uint32_t>(in_base + 2 * stride);
      t.perm[out_base + 2] = static_cast<std::uint32_t>(in_base + stride);
      t.perm[out_base + 3] =
          static_cast<std::uint32_t>(in_base + 3 * stride);
      t.quads.push_back(static_cast<std::uint32_t>(out_base));
      return;
    }
    self(self, out_base, len / 2, lg - 1, 2 * stride, in_base);
    self(self, out_base + len / 2, len / 4, lg - 2, 4 * stride,
         in_base + stride);
    self(self, out_base + 3 * len / 4, len / 4, lg - 2, 4 * stride,
         in_base + 3 * stride);
    offs_by_log[lg].push_back(static_cast<std::uint32_t>(out_base));
  };
  fill(fill, 0, n, log2n, 1, 0);

  // Combine levels in ascending block size; twiddle planes appended in
  // the same order so each level owns one contiguous slice.
  std::size_t tw_off = 0;
  for (std::size_t lg = 3; lg <= log2n; ++lg) {
    if (offs_by_log[lg].empty()) continue;
    const std::size_t size = std::size_t{1} << lg;
    const std::size_t n4 = size / 4;
    PowTables::Level lvl;
    lvl.n4 = n4;
    lvl.tw_off = tw_off;
    lvl.offsets = std::move(offs_by_log[lg]);
    t.levels.push_back(std::move(lvl));
    t.sr_tw.resize(tw_off + 2 * n4);
    t.sr_tw_inv.resize(tw_off + 2 * n4);
    for (std::size_t j = 0; j < n4; ++j) {
      const double a1 =
          -kTwoPi * static_cast<double>(j) / static_cast<double>(size);
      const double a3 = -kTwoPi * static_cast<double>((3 * j) % size) /
                        static_cast<double>(size);
      const cplx w1{std::cos(a1), std::sin(a1)};
      const cplx w3{std::cos(a3), std::sin(a3)};
      t.sr_tw[tw_off + j] = w1;
      t.sr_tw[tw_off + n4 + j] = w3;
      t.sr_tw_inv[tw_off + j] = std::conj(w1);
      t.sr_tw_inv[tw_off + n4 + j] = std::conj(w3);
    }
    tw_off += 2 * n4;
  }
  return t;
}

/// Run the power-of-two transform. The gather pass is out-of-place by
/// construction, so an in-place request (in == out) must supply
/// `scratch` (n complexes): the gather and mid-level combines run in
/// the scratch buffer and the final combine level writes back to `out`
/// — no extra copy pass anywhere. Without a level (n <= 4) the gathered
/// base unit is the result; the scale pass moves it to `out`.
void execute_pow(const PowTables& t, const cplx* in, cplx* out,
                 bool inverse, double scale, cplx* scratch = nullptr) {
  const simd::Kernels& kr = simd::kernels();
  cplx* mid = (in == out) ? scratch : out;
  kr.fft_sr_gather(in, mid, t.perm.data(), t.quads.data(), t.quads.size(),
                   t.pairs.data(), t.pairs.size(), inverse);
  if (t.levels.empty()) {
    const cplx* src = t.n == 1 ? in : mid;
    if (scale != 1.0) {
      kr.cvec_scale(src, scale, out, t.n);
    } else if (src != out) {
      std::copy(src, src + t.n, out);
    }
    return;
  }
  const cplx* tw = (inverse ? t.sr_tw_inv : t.sr_tw).data();
  const std::size_t n_levels = t.levels.size();
  for (std::size_t l = 0; l + 1 < n_levels; ++l) {
    const PowTables::Level& lvl = t.levels[l];
    kr.fft_sr_combine(mid, tw + lvl.tw_off, lvl.offsets.data(),
                      lvl.offsets.size(), lvl.n4, inverse);
  }
  const PowTables::Level& last = t.levels.back();
  kr.fft_sr_last(mid, out, tw + last.tw_off, last.n4, inverse, scale);
}

/// Bluestein chirp-z tables: the chirp, the two transformed
/// convolution kernels, and a shared handle on the inner power-of-two
/// tables (which go through the same cache, so e.g. DRM's 1152-point
/// plan and a direct 4096-point plan share one 4096-point table set).
struct BluesteinTables {
  std::size_t n = 0;
  std::size_t m = 0;  // convolution FFT size (power of two)
  std::shared_ptr<const PowTables> conv;
  cvec chirp_fwd;       // e^{-jπk²/n}
  cvec kernel_fft_fwd;  // FFT of conjugate chirp, forward direction
  cvec kernel_fft_inv;  // same for the inverse direction
};

cvec make_bluestein_kernel(const BluesteinTables& t, bool inverse) {
  cvec kern(t.m, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < t.n; ++k) {
    const cplx c = inverse ? t.chirp_fwd[k] : std::conj(t.chirp_fwd[k]);
    kern[k] = c;
    if (k != 0) kern[t.m - k] = c;
  }
  cvec out(t.m);
  execute_pow(*t.conv, kern.data(), out.data(), /*inverse=*/false, 1.0);
  return out;
}

/// `out` may alias `in`: the input is consumed before anything is
/// written back. `work`/`work2` are the plan's m-point scratch buffers
/// (two of them so the out-of-place split-radix convolution transforms
/// never need an extra copy pass).
void execute_bluestein(const BluesteinTables& t, std::span<const cplx> in,
                       std::span<cplx> out, bool inverse, double scale,
                       cvec& work, cvec& work2) {
  const std::size_t n = t.n;
  const std::size_t m = t.m;
  for (std::size_t k = 0; k < n; ++k) {
    const cplx c = inverse ? std::conj(t.chirp_fwd[k]) : t.chirp_fwd[k];
    work[k] = in[k] * c;
  }
  std::fill(work.begin() + static_cast<std::ptrdiff_t>(n), work.end(),
            cplx{0.0, 0.0});
  execute_pow(*t.conv, work.data(), work2.data(), /*inverse=*/false, 1.0);
  const cvec& kern = inverse ? t.kernel_fft_inv : t.kernel_fft_fwd;
  simd::kernels().cvec_mul(work2.data(), kern.data(), work2.data(), m);
  execute_pow(*t.conv, work2.data(), work.data(), /*inverse=*/true, 1.0);
  const double s = scale / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx c = inverse ? std::conj(t.chirp_fwd[k]) : t.chirp_fwd[k];
    out[k] = work[k] * c * s;
  }
}

/// Pack/unpack twiddle planes for the half-size plan kinds (even n):
/// pack_tw feeds inverse_hermitian, unpack_tw feeds forward_real.
struct HalfTables {
  cvec pack_tw;    // e^{+j2πk/n}, k in [0, n/2)
  cvec unpack_tw;  // e^{-j2πk/n}
};

HalfTables build_half(std::size_t n) {
  const std::size_t m = n / 2;
  HalfTables t;
  t.pack_tw.resize(m);
  t.unpack_tw.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double a =
        kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    t.pack_tw[k] = {std::cos(a), std::sin(a)};
    t.unpack_tw[k] = {std::cos(-a), std::sin(-a)};
  }
  return t;
}

// ---------------------------------------------------------------------------
// Process-wide plan-table cache
//
// Keyed by (size, kind). Values are shared_ptr to immutable
// table sets: plans hold shared ownership, so clearing the cache (or
// two threads racing on a build) can never invalidate a live plan.
// Builds run outside the lock — table construction may itself acquire
// (Bluestein's inner transform) and must not hold up other sizes; a
// lost insertion race just shares the winner's tables.

enum class TableKind : std::uint64_t {
  kPow = 0,
  kBluestein = 1,
  kHalf = 2,
};

struct CacheState {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<const void>> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

CacheState& cache() {
  static CacheState* s = new CacheState;  // leaked: outlives all users
  return *s;
}

std::uint64_t cache_key(std::size_t n, TableKind kind) {
  return (static_cast<std::uint64_t>(n) << 2) |
         static_cast<std::uint64_t>(kind);
}

template <typename T, typename Build>
std::shared_ptr<const T> acquire(std::uint64_t key, Build&& build) {
  CacheState& c = cache();
  {
    std::scoped_lock lk(c.mu);
    auto it = c.map.find(key);
    if (it != c.map.end()) {
      ++c.hits;
      return std::static_pointer_cast<const T>(it->second);
    }
  }
  std::shared_ptr<const T> built = build();
  std::scoped_lock lk(c.mu);
  auto [it, inserted] = c.map.emplace(key, built);
  if (inserted) {
    ++c.misses;
    return built;
  }
  ++c.hits;
  return std::static_pointer_cast<const T>(it->second);
}

std::shared_ptr<const PowTables> acquire_pow(std::size_t n) {
  return acquire<PowTables>(cache_key(n, TableKind::kPow), [n] {
    return std::make_shared<const PowTables>(build_split_radix(n));
  });
}

std::shared_ptr<const BluesteinTables> acquire_bluestein(std::size_t n) {
  return acquire<BluesteinTables>(
      cache_key(n, TableKind::kBluestein), [n] {
        auto t = std::make_shared<BluesteinTables>();
        t->n = n;
        t->m = next_pow2(2 * n - 1);
        t->conv = acquire_pow(t->m);
        t->chirp_fwd.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
          // k² mod 2n keeps the argument small for large N without
          // changing the chirp (e^{-jπ(k²+2n·q)/n} == e^{-jπk²/n}).
          const std::size_t k2 = (k * k) % (2 * n);
          const double a =
              -kPi * static_cast<double>(k2) / static_cast<double>(n);
          t->chirp_fwd[k] = {std::cos(a), std::sin(a)};
        }
        t->kernel_fft_fwd = make_bluestein_kernel(*t, false);
        t->kernel_fft_inv = make_bluestein_kernel(*t, true);
        return std::shared_ptr<const BluesteinTables>(std::move(t));
      });
}

std::shared_ptr<const HalfTables> acquire_half(std::size_t n) {
  return acquire<HalfTables>(
      cache_key(n, TableKind::kHalf), [n] {
        return std::make_shared<const HalfTables>(build_half(n));
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Public cache hooks

FftCacheStats fft_plan_cache_stats() {
  CacheState& c = cache();
  std::scoped_lock lk(c.mu);
  return {c.hits, c.misses, c.map.size()};
}

void fft_plan_cache_clear() {
  CacheState& c = cache();
  std::scoped_lock lk(c.mu);
  c.map.clear();
  c.hits = 0;
  c.misses = 0;
}

// ---------------------------------------------------------------------------
// Fft plans

struct Fft::Impl {
  std::size_t n = 0;
  std::shared_ptr<const PowTables> pow;
  std::shared_ptr<const BluesteinTables> blu;
  // Mutable scratch is plan-private (the shared tables are immutable),
  // preserving the one-thread-per-plan execution contract. For
  // power-of-two plans `work` stages in-place requests through the
  // out-of-place gather; for Bluestein, work/work2 are the two m-point
  // convolution buffers.
  mutable cvec work;
  mutable cvec work2;

  // Half-size plan kinds (even n): one n/2-point plan plus the shared
  // pack/unpack twiddle planes. Built on first use so plans that never
  // touch real signals pay nothing.
  mutable std::once_flag half_once;
  mutable std::unique_ptr<Fft> half;
  mutable std::shared_ptr<const HalfTables> half_tw;
  mutable cvec half_work;

  void ensure_half() const {
    std::call_once(half_once, [this] {
      half = std::make_unique<Fft>(n / 2);
      half_tw = acquire_half(n);
      half_work.resize(n / 2);
    });
  }

  /// Shared entry for the pow2 paths: in-place requests hand the
  /// plan's scratch buffer to the executor, which runs the
  /// early levels there and finishes into `out`.
  void run_pow(std::span<const cplx> in, std::span<cplx> out,
               bool inverse, double scale) const {
    execute_pow(*pow, in.data(), out.data(), inverse, scale, work.data());
  }
};

Fft::Fft(std::size_t n) : impl_(std::make_unique<Impl>()) {
  OFDM_REQUIRE(n >= 1, "Fft: size must be >= 1");
  impl_->n = n;
  if (ofdm::is_pow2(n)) {
    impl_->pow = acquire_pow(n);
    impl_->work.resize(n);
  } else {
    impl_->blu = acquire_bluestein(n);
    impl_->work.resize(impl_->blu->m);
    impl_->work2.resize(impl_->blu->m);
  }
}

Fft::~Fft() = default;
Fft::Fft(Fft&&) noexcept = default;
Fft& Fft::operator=(Fft&&) noexcept = default;

std::size_t Fft::size() const { return impl_->n; }
bool Fft::is_pow2() const { return impl_->pow != nullptr; }

void Fft::forward(std::span<const cplx> in, std::span<cplx> out) const {
  OFDM_REQUIRE_DIM(in.size() == impl_->n && out.size() == impl_->n,
                   "Fft::forward: buffer size mismatch");
  if (impl_->pow) {
    impl_->run_pow(in, out, /*inverse=*/false, 1.0);
  } else {
    execute_bluestein(*impl_->blu, in, out, /*inverse=*/false, 1.0,
                      impl_->work, impl_->work2);
  }
}

void Fft::inverse(std::span<const cplx> in, std::span<cplx> out,
                  double scale) const {
  OFDM_REQUIRE_DIM(in.size() == impl_->n && out.size() == impl_->n,
                   "Fft::inverse: buffer size mismatch");
  const double s = scale / static_cast<double>(impl_->n);
  if (impl_->pow) {
    impl_->run_pow(in, out, /*inverse=*/true, s);
  } else {
    execute_bluestein(*impl_->blu, in, out, /*inverse=*/true, s,
                      impl_->work, impl_->work2);
  }
}

void Fft::forward_real(std::span<const cplx> in,
                       std::span<cplx> out) const {
  const std::size_t n = impl_->n;
  OFDM_REQUIRE_DIM(in.size() == n && out.size() == n,
                   "Fft::forward_real: buffer size mismatch");
  if (n < 2 || n % 2 != 0) {
    // Odd sizes: general path over the real parts (imag discarded, as
    // documented). Elementwise copy first keeps in-place calls safe.
    for (std::size_t i = 0; i < n; ++i) out[i] = {in[i].real(), 0.0};
    forward(out, out);
    return;
  }
  impl_->ensure_half();
  const std::size_t m = n / 2;
  // Pack adjacent real samples into one complex signal, transform at
  // half size, then split the packed spectrum back apart:
  //   Z = FFT_m(x[2i] + j x[2i+1])
  //   E[k] = (Z[k] + conj(Z[m-k]))/2        (spectrum of the evens)
  //   O[k] = (Z[k] - conj(Z[m-k]))/(2j)     (spectrum of the odds)
  //   X[k] = E[k] + W^k O[k],  X[k+m] = E[k] - W^k O[k],  W = e^{-j2π/n}.
  cvec& z = impl_->half_work;
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = {in[2 * i].real(), in[2 * i + 1].real()};
  }
  impl_->half->forward(z, z);
  const cvec& w = impl_->half_tw->unpack_tw;
  out[0] = {z[0].real() + z[0].imag(), 0.0};
  out[m] = {z[0].real() - z[0].imag(), 0.0};
  for (std::size_t k = 1; k < m; ++k) {
    const cplx zk = z[k];
    const cplx zc = std::conj(z[m - k]);
    const cplx e = 0.5 * (zk + zc);
    const cplx d = zk - zc;
    const cplx o{0.5 * d.imag(), -0.5 * d.real()};  // d / (2j)
    const cplx tvx = o * w[k];
    out[k] = e + tvx;
    out[k + m] = e - tvx;
  }
}

void Fft::inverse_hermitian(std::span<const cplx> in, std::span<cplx> out,
                            double scale) const {
  const std::size_t n = impl_->n;
  OFDM_REQUIRE_DIM(in.size() == n && out.size() == n,
                   "Fft::inverse_hermitian: buffer size mismatch");
  if (n < 2 || n % 2 != 0) {
    inverse(in, out, scale);
    return;
  }
  impl_->ensure_half();
  const std::size_t m = n / 2;
  // Pack the Hermitian spectrum into an m-point complex spectrum whose
  // IFFT z satisfies z[i] = x[2i] + j x[2i+1] for the real output x:
  //   W[k] = (X[k] + X[k+m]) + j e^{+j2πk/n} (X[k] - X[k+m]).
  cvec& w = impl_->half_work;
  const cvec& tw = impl_->half_tw->pack_tw;
  for (std::size_t k = 0; k < m; ++k) {
    const cplx e = in[k] + in[k + m];
    const cplx o = (in[k] - in[k + m]) * tw[k];
    w[k] = {e.real() - o.imag(), e.imag() + o.real()};
  }
  // z = IFFT_m(W) / 2 (the 1/n of the full transform is 1/(2m)).
  impl_->half->inverse(w, w, 0.5 * scale);
  for (std::size_t i = 0; i < m; ++i) {
    out[2 * i] = {w[i].real(), 0.0};
    out[2 * i + 1] = {w[i].imag(), 0.0};
  }
}

cvec Fft::forward(std::span<const cplx> in) const {
  cvec out(size());
  forward(in, out);
  return out;
}

cvec Fft::inverse(std::span<const cplx> in) const {
  cvec out(size());
  inverse(in, out);
  return out;
}

cvec reference_dft(std::span<const cplx> x, bool inverse) {
  const std::size_t n = x.size();
  cvec out(n, cplx{0.0, 0.0});
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (std::size_t m = 0; m < n; ++m) {
      const double a = sign * kTwoPi * static_cast<double>(k * m % n) /
                       static_cast<double>(n);
      acc += x[m] * cplx{std::cos(a), std::sin(a)};
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

cvec fftshift(std::span<const cplx> x) {
  const std::size_t n = x.size();
  cvec out(n);
  const std::size_t half = (n + 1) / 2;  // ceil: DC lands in the middle
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(half), x.end(),
            out.begin());
  std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(half),
            out.begin() + static_cast<std::ptrdiff_t>(n - half));
  return out;
}

cvec ifftshift(std::span<const cplx> x) {
  const std::size_t n = x.size();
  cvec out(n);
  // Rotate left by floor(n/2): the exact inverse of fftshift's
  // rotate-left-by-ceil(n/2).
  const std::size_t half = n / 2;
  std::copy(x.begin() + static_cast<std::ptrdiff_t>(half), x.end(),
            out.begin());
  std::copy(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(half),
            out.begin() + static_cast<std::ptrdiff_t>(n - half));
  return out;
}

}  // namespace ofdm::dsp
