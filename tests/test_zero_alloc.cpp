// Steady-state allocation audit for the streaming RF datapath and the
// campaign trial.
//
// The simulation loop (rf::run and Netlist::run) is supposed to be
// allocation-free once every reusable buffer has reached its final
// capacity: process-into APIs, ping-pong chain buffers, per-plan FFT
// scratch. This test replaces global operator new with a counting hook,
// warms the chain up, then asserts that further chunks perform zero
// heap allocations. A warm campaign trial keeps every burst- and
// symbol-sized buffer in its runner's scratch, so it makes no
// allocation of 1 KiB or more.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "rf/chain.hpp"
#include "rf/guard.hpp"
#include "rf/channel.hpp"
#include "rf/frontend.hpp"
#include "rf/impairments.hpp"
#include "rf/netlist.hpp"
#include "rf/pa.hpp"
#include "rf/papr_reduction.hpp"
#include "rf/sinks.hpp"
#include "rf/submodel.hpp"
#include "sim/deck.hpp"
#include "sim/trial.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};
/// Allocations of at least kLargeAlloc bytes (burst- or symbol-sized).
constexpr std::size_t kLargeAlloc = 1024;
std::atomic<std::size_t> g_large_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size >= kLargeAlloc) {
      g_large_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ofdm::rf {
namespace {

/// Allocations performed by `fn` (counting scoped to the call).
template <typename Fn>
std::size_t count_allocs(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_large_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

/// Allocations of at least kLargeAlloc bytes performed by `fn`.
template <typename Fn>
std::size_t count_large_allocs(Fn&& fn) {
  count_allocs(fn);
  return g_large_allocs.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, SteadyStateChainRunDoesNotAllocate) {
  ToneSource source(1e6, 20e6, 0.7);
  Chain chain;
  chain.add<Gain>(-6.0);
  chain.add<IqImbalance>(0.4, 2.0);
  chain.add<DcOffset>(cplx{0.01, -0.02});
  chain.add<PhaseNoise>(50.0, 20e6);
  chain.add<RappPa>(2.0, 1.0);
  chain.add<MultipathChannel>(exponential_pdp_taps(2.0, 8, 99));
  chain.add<AwgnChannel>(1e-3);
  chain.add<PowerMeter>();

  // Warm-up: every reusable buffer reaches its final capacity.
  run(source, chain, 4 * 4096);

  cvec in;
  cvec out;
  source.pull(4096, in);  // warm the local buffers too
  chain.process(in, out);
  const std::size_t allocs = count_allocs([&] {
    for (int chunk = 0; chunk < 8; ++chunk) {
      source.pull(4096, in);
      chain.process(in, out);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out.size(), 4096u);
}

TEST(ZeroAlloc, ProbedAndTracedSteadyStateDoesNotAllocate) {
  // The observability layer must be allocation-free in steady state even
  // when fully on: counters, output hashing, and span recording into the
  // preallocated trace ring. Only the warm-up may allocate (buffers plus
  // each block's interned trace label).
  ToneSource source(1e6, 20e6, 0.7);
  Chain chain;
  chain.add<Gain>(-3.0);
  chain.add<RappPa>(2.0, 1.0);
  chain.add<AwgnChannel>(1e-3);
  chain.add<PowerMeter>();

  obs::ProbeSet probes({.measure_signal = true, .hash_output = true});
  chain.attach_probes(probes);
  source.set_probe(&probes.add(source.name()));
  obs::Tracer::instance().enable(1u << 12);

  run(source, chain, 4 * 4096);  // warm-up

  cvec in;
  cvec out;
  source.pull_observed(4096, in);
  chain.process(in, out);
  const std::size_t allocs = count_allocs([&] {
    for (int chunk = 0; chunk < 8; ++chunk) {
      source.pull_observed(4096, in);
      chain.process(in, out);
    }
  });
  obs::Tracer::instance().disable();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out.size(), 4096u);
  // The probes really were live while we measured.
  EXPECT_GE(probes.at(0).invocations(), 9u);
  EXPECT_GT(obs::Tracer::instance().recorded(), 0u);
}

TEST(ZeroAlloc, GuardedSteadyStateDoesNotAllocate) {
  // Numerical-health guards ride the same observed call path as probes;
  // with a clean signal the per-chunk cost is one finiteness pass and no
  // heap traffic — even under the mutating Zero policy.
  ToneSource source(1e6, 20e6, 0.7);
  Chain chain;
  chain.add<Gain>(-3.0);
  chain.add<RappPa>(2.0, 1.0);
  chain.add<AwgnChannel>(1e-3);
  chain.add<PowerMeter>();

  GuardSet guards({.policy = GuardPolicy::kZero});
  chain.attach_guards(guards);
  source.set_guard(&guards.add(source.name()));

  run(source, chain, 4 * 4096);  // warm-up

  cvec in;
  cvec out;
  source.pull_observed(4096, in);
  chain.process(in, out);
  const std::size_t allocs = count_allocs([&] {
    for (int chunk = 0; chunk < 8; ++chunk) {
      source.pull_observed(4096, in);
      chain.process(in, out);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out.size(), 4096u);
  // The guards really were live while we measured...
  EXPECT_GE(guards.at(0).samples_seen(), 9u * 4096u);
  // ...and a healthy graph needed no repairs.
  EXPECT_EQ(guards.total_faults(), 0u);
  EXPECT_EQ(guards.total_repairs(), 0u);
}

TEST(ZeroAlloc, RateChangersReuseTheirBuffers) {
  ToneSource source(1e6, 20e6, 0.5);
  Chain chain;
  chain.add<Dac>(10, 4);            // 4x interpolation
  chain.add<FrequencyShift>(2e6, 80e6);
  chain.add<DecimatorBlock>(4);     // back to the input rate

  run(source, chain, 4 * 2048, 2048);

  cvec in;
  cvec out;
  source.pull(2048, in);  // warm the local buffers too
  chain.process(in, out);
  const std::size_t allocs = count_allocs([&] {
    for (int chunk = 0; chunk < 6; ++chunk) {
      source.pull(2048, in);
      chain.process(in, out);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(out.size(), 2048u);
}

TEST(ZeroAlloc, NetlistSteadyStateDoesNotAllocate) {
  Netlist net;
  const auto src_a = net.add_source<ToneSource>(1e6, 20e6, 0.5);
  const auto src_b = net.add_source<ToneSource>(3e6, 20e6, 0.25);
  const auto sum = net.add_block<Gain>(0.0);
  const auto pa = net.add_block<SoftClipPa>(0.9);
  const auto meter = net.add_block<PowerMeter>();
  net.connect(src_a, sum);
  net.connect(src_b, sum);   // summing fan-in
  net.connect(sum, pa);
  net.connect(pa, meter);

  net.run(4 * 4096);  // warm-up (buffers live inside run(), so the
                      // second run starts cold again -- measure the
                      // tail of one longer run instead)

  // Netlist::run owns its buffers per call; steady state means the tail
  // of a long run allocates nothing beyond the first few chunks. Proxy:
  // a fresh run of N chunks and a fresh run of 2N chunks must allocate
  // the same amount.
  net.reset();
  const std::size_t short_run = count_allocs([&] { net.run(4 * 4096); });
  net.reset();
  const std::size_t long_run = count_allocs([&] { net.run(16 * 4096); });
  EXPECT_EQ(short_run, long_run);
}

TEST(ZeroAlloc, EmptyChainPassesThroughWithOneAssign) {
  Chain chain;
  cvec in(1024, cplx{0.5, -0.5});
  cvec out;
  chain.process(in, out);  // warm-up: out reaches capacity
  const std::size_t allocs = count_allocs([&] {
    for (int i = 0; i < 4; ++i) chain.process(in, out);
  });
  EXPECT_EQ(allocs, 0u);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(ZeroAlloc, WarmCodedTrialMakesNoBurstSizedAllocation) {
  // The coded_awgn benchmark's link. After one warm-up trial the payload,
  // the coded stream, the AWGN noise, every demodulate() stage and the
  // EVM reference tones live in buffers the runner keeps, so a trial
  // makes no allocation of 1 KiB or more (small ones remain: the
  // per-trial RF chain, RS code words).
  const sim::ScenarioDeck deck = sim::parse_deck(
      "name=zero_alloc\n"
      "standard=wlan_80211a@12,dvbt,wman_80216a,adsl+fec\n"
      "channel=awgn\nrx=coded\nrx.soft=1\n"
      "payload_bits=4096\nsnr_db=6\nseed=3\n");
  for (const sim::PointSpec& point : sim::expand_grid(deck)) {
    sim::LinkRunner runner(deck, point);
    sim::TrialResult r;
    runner.run_trials(0, {&r, 1});  // warm-up
    const std::size_t large =
        count_large_allocs([&] { runner.run_trials(1, {&r, 1}); });
    EXPECT_EQ(large, 0u) << deck.standards[point.standard_index].token;
    EXPECT_EQ(r.bits, 4096u);
  }
}

TEST(ZeroAlloc, WarmUncodedTrialMakesNoBurstSizedAllocation) {
  // The uncoded tap, with the differential standards (DAB, HomePlug)
  // among its links: the transmitter maps each differential symbol into
  // its own scratch, the receiver keeps its differential demapper in
  // the runner's scratch, and the pre-FEC reference is the coded stream
  // the transmitter already holds. So after one warm-up trial a trial
  // makes no allocation of 1 KiB or more, at a short payload and at
  // each standard's recommended one (payload_bits=0).
  for (const char* payload : {"256", "0"}) {
    const sim::ScenarioDeck deck = sim::parse_deck(
        std::string("name=zero_alloc_uncoded\n"
                    "standard=dab,homeplug,wlan_80211a@6\n"
                    "channel=awgn\nrx=uncoded\nsnr_db=6\nseed=3\n"
                    "payload_bits=") +
        payload + "\n");
    for (const sim::PointSpec& point : sim::expand_grid(deck)) {
      sim::LinkRunner runner(deck, point);
      sim::TrialResult r;
      runner.run_trials(0, {&r, 1});  // warm-up
      const std::size_t large =
          count_large_allocs([&] { runner.run_trials(1, {&r, 1}); });
      EXPECT_EQ(large, 0u) << deck.standards[point.standard_index].token
                           << " payload_bits=" << payload;
      EXPECT_GT(r.bits, 0u);
    }
  }
}

}  // namespace
}  // namespace ofdm::rf
