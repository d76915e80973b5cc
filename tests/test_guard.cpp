// Guard-policy coverage across the whole standard family: a FlakyBlock
// poisons the stream mid-chain and every policy must contain the fault
// the way its contract says — Throw pins the faulting block and sample,
// Zero repairs and counts, Report observes without touching, and Clamp
// limits.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "core/profiles.hpp"
#include "obs/stream_hash.hpp"
#include "rf/chain.hpp"
#include "rf/guard.hpp"
#include "rf/impairments.hpp"
#include "rf/pa.hpp"
#include "rf/submodel.hpp"
#include "support/fault.hpp"

namespace ofdm::rf {
namespace {

constexpr std::size_t kChunk = 751;  // cuts through frames and gaps
constexpr std::size_t kChunks = 8;
constexpr std::size_t kEvery = 2;  // flaky block fires every 2nd chunk

/// Submodel -> gain -> flaky[gain] -> dc-offset. The flaky wrapper sits
/// mid-chain so a fault has both an upstream (must stay clean) and a
/// downstream (sees the fault or not, depending on policy).
struct FaultyGraph {
  Submodel source;
  Chain chain;
  FlakyBlock* flaky;

  FaultyGraph(core::Standard standard, FlakyBlock::Fault fault)
      : source(core::profile_for(standard), 23, 0x51ED) {
    chain.add<Gain>(-1.0);
    flaky = &dynamic_cast<FlakyBlock&>(chain.add_ptr(
        std::make_unique<FlakyBlock>(std::make_unique<Gain>(0.0), kEvery,
                                     fault)));
    chain.add<DcOffset>(cplx{0.01, 0.0});
  }

  std::uint64_t run_hashed() {
    obs::StreamHash hash;
    cvec in;
    cvec out;
    for (std::size_t c = 0; c < kChunks; ++c) {
      source.pull(kChunk, in);
      chain.process(in, out);
      hash.update(out);
    }
    return hash.digest();
  }
};

class GuardPolicies : public ::testing::TestWithParam<core::Standard> {};

TEST_P(GuardPolicies, ThrowNamesFaultingBlockAndSampleOffset) {
  FaultyGraph g(GetParam(), FlakyBlock::Fault::kNaN);
  GuardSet guards({.policy = GuardPolicy::kThrow});
  g.chain.attach_guards(guards);
  try {
    g.run_hashed();
    FAIL() << "a NaN was injected but no guard threw";
  } catch (const StreamError& e) {
    EXPECT_EQ(e.block(), "flaky[gain]");
    EXPECT_EQ(e.graph_position(), 1u);  // attach order: gain, flaky, dc
    ASSERT_EQ(g.flaky->faults_injected(), 1u);
    EXPECT_EQ(e.sample_offset(), g.flaky->last_fault_offset());
    // The offset lands inside the chunk that fired, in absolute stream
    // coordinates.
    EXPECT_GE(e.sample_offset(), (kEvery - 1) * kChunk);
    EXPECT_LT(e.sample_offset(), kEvery * kChunk);
  }
}

TEST_P(GuardPolicies, ZeroPolicyRepairsCountsAndContains) {
  FaultyGraph g(GetParam(), FlakyBlock::Fault::kNaN);
  GuardSet guards({.policy = GuardPolicy::kZero});
  g.chain.attach_guards(guards);
  g.run_hashed();  // must complete: faults are repaired in place

  EXPECT_EQ(g.flaky->faults_injected(), kChunks / kEvery);
  const NumericGuard* at_fault = guards.find("flaky[gain]");
  ASSERT_NE(at_fault, nullptr);
  EXPECT_EQ(at_fault->nan_samples(), kChunks / kEvery);
  EXPECT_EQ(at_fault->repairs(), kChunks / kEvery);
  // Containment: the repair happened at the faulting block's boundary,
  // so its neighbours never saw a bad sample.
  EXPECT_EQ(guards.at(0).faults(), 0u);  // upstream gain
  EXPECT_EQ(guards.at(2).faults(), 0u);  // downstream dc-offset
  EXPECT_EQ(guards.total_faults(), at_fault->faults());
}

INSTANTIATE_TEST_SUITE_P(Family, GuardPolicies,
                         ::testing::ValuesIn(core::kStandardFamily));

TEST(GuardPolicy, ReportCountsButDoesNotTouchTheStream) {
  FaultyGraph g(core::Standard::kWlan80211a, FlakyBlock::Fault::kInf);
  GuardSet guards({.policy = GuardPolicy::kReport});
  g.chain.attach_guards(guards);
  g.run_hashed();

  const NumericGuard* at_fault = guards.find("flaky[gain]");
  ASSERT_NE(at_fault, nullptr);
  EXPECT_EQ(at_fault->inf_samples(), kChunks / kEvery);
  EXPECT_EQ(at_fault->repairs(), 0u);
  // Report does not contain: the downstream block ingests the Inf and
  // its own guard sees the poisoned result (Inf * finite or Inf + c).
  EXPECT_GT(guards.at(2).faults(), 0u);
}

TEST(GuardPolicy, ClampLimitsInfAndSaturatedSamples) {
  FaultyGraph g(core::Standard::kAdsl, FlakyBlock::Fault::kInf);
  GuardSet guards({.policy = GuardPolicy::kClamp,
                   .saturation_threshold = 2.0});
  g.chain.attach_guards(guards);
  cvec in;
  cvec out;
  for (std::size_t c = 0; c < kChunks; ++c) {
    g.source.pull(kChunk, in);
    g.chain.process(in, out);
    for (const cplx& v : out) {
      ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
    }
  }
  const NumericGuard* at_fault = guards.find("flaky[gain]");
  ASSERT_NE(at_fault, nullptr);
  EXPECT_EQ(at_fault->inf_samples(), kChunks / kEvery);
  EXPECT_GE(at_fault->repairs(), at_fault->inf_samples());
  EXPECT_EQ(guards.at(2).nonfinite_samples(), 0u);
}

TEST(GuardPolicy, ClampRequiresASaturationThreshold) {
  EXPECT_THROW(GuardSet({.policy = GuardPolicy::kClamp}), Error);
}

TEST(GuardPolicy, GuardSetSuffixesDuplicateNames) {
  GuardSet guards;
  guards.add("gain");
  guards.add("gain");
  guards.add("awgn");
  // Same convention as obs::ProbeSet: the first keeps the bare name,
  // the k-th duplicate is suffixed #k.
  EXPECT_NE(guards.find("gain"), nullptr);
  EXPECT_NE(guards.find("gain#2"), nullptr);
  EXPECT_NE(guards.find("awgn"), nullptr);
  EXPECT_EQ(guards.find("gain#3"), nullptr);
  EXPECT_EQ(guards.at(1).position(), 1u);
}

/// A Throw-policy fault must leave the chain usable: the same chain,
/// re-guarded under kZero, keeps streaming from where it stopped.
TEST(GuardPolicy, ChainKeepsRunningUnderZeroGuardAfterAThrow) {
  FaultyGraph g(core::Standard::kWlan80211a, FlakyBlock::Fault::kNaN);
  {
    GuardSet guards({.policy = GuardPolicy::kThrow});
    g.chain.attach_guards(guards);
    EXPECT_THROW(run(g.source, g.chain, kChunks * kChunk, kChunk),
                 StreamError);
    g.chain.detach_guards();
  }
  GuardSet relaxed({.policy = GuardPolicy::kZero});
  g.chain.attach_guards(relaxed);
  const RunStats stats = run(g.source, g.chain, 4 * kChunk, kChunk);
  EXPECT_EQ(stats.samples_out, 4 * kChunk);
  EXPECT_EQ(relaxed.total_repairs(), 4 / kEvery);
}

TEST(GuardPolicy, DetachedGuardLeavesStreamAlone) {
  FaultyGraph g(core::Standard::kWlan80211a, FlakyBlock::Fault::kNaN);
  {
    GuardSet guards({.policy = GuardPolicy::kThrow});
    g.chain.attach_guards(guards);
    g.chain.detach_guards();
  }  // the set may die once detached
  EXPECT_NO_THROW(g.run_hashed());
  EXPECT_GT(g.flaky->faults_injected(), 0u);
}

}  // namespace
}  // namespace ofdm::rf
