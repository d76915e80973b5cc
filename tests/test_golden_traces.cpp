// Golden-trace regression suite: a bit-level net under the ten-standard
// family.
//
// For every family member a fixed-seed payload is modulated and the
// output stream is folded into a 64-bit rolling hash (obs::StreamHash).
// The hashes are checked against the table in golden_traces.inc: the
// transmitter's burst alone, and the burst streamed through a small RF
// graph (plus snapshot-resume of that graph), per standard on every
// test run.
//
// Intentional waveform changes: rerun this binary with --regen to
// rewrite tests/golden_traces.inc in the source tree, inspect the diff,
// and commit it alongside the change that moved the bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/serial.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "obs/stream_hash.hpp"
#include "rf/chain.hpp"
#include "rf/channel.hpp"
#include "rf/channels/registry.hpp"
#include "rf/frontend.hpp"
#include "rf/pa.hpp"
#include "rf/submodel.hpp"

namespace ofdm {
namespace {

struct GoldenEntry {
  const char* standard;
  std::uint64_t hash;        // single modulated burst (tx only)
  std::uint64_t graph_hash;  // burst streamed through the golden graph
};

constexpr GoldenEntry kGoldenTraces[] = {
#include "golden_traces.inc"
};

constexpr std::uint64_t kPayloadSeed = 0xB0D5;

/// The deterministic capture everything below agrees on: fixed payload
/// seed, payload clamped to [200, 4000] bits, one modulated burst.
cvec golden_burst(core::Standard standard) {
  core::Transmitter tx(core::profile_for(standard));
  Rng rng(kPayloadSeed);
  const bitvec payload = rng.bits(std::clamp<std::size_t>(
      tx.recommended_payload_bits(), 200, 4000));
  return tx.modulate(payload).samples;
}

/// The golden RF graph: a Submodel streaming into a small stateful chain
/// (gain, static multipath, digital IF shift, soft-clip PA). Every block
/// carries streaming state across chunk boundaries, which is exactly what
/// the snapshot-resume test must preserve bit-identically.
struct GoldenGraph {
  rf::Submodel source;
  rf::Chain chain;

  explicit GoldenGraph(core::Standard standard)
      : source(core::profile_for(standard), 31, kPayloadSeed) {
    chain.add<rf::Gain>(-3.0);
    chain.add<rf::MultipathChannel>(rf::exponential_pdp_taps(1.5, 4, 7));
    chain.add<rf::FrequencyShift>(1e4, 1e6);
    chain.add<rf::SoftClipPa>(0.9);
  }

  /// Stream `chunks` chunks of kGraphChunk samples, folding the chain
  /// output into `hash`.
  void run(std::size_t chunks, obs::StreamHash& hash) {
    cvec in;
    cvec out;
    for (std::size_t c = 0; c < chunks; ++c) {
      source.pull(kGraphChunk, in);
      chain.process(in, out);
      hash.update(out);
    }
  }

  /// Serialize source + chain as two named frames.
  std::vector<std::uint8_t> checkpoint() const {
    StateWriter w;
    w.begin_node(source.name());
    source.save_state(w);
    w.end_node();
    w.begin_node(chain.name());
    chain.save_state(w);
    w.end_node();
    return w.bytes();
  }

  void restore(std::span<const std::uint8_t> bytes) {
    StateReader r(bytes);
    r.enter_node(source.name());
    source.load_state(r);
    r.exit_node();
    r.enter_node(chain.name());
    chain.load_state(r);
    r.exit_node();
    ASSERT_TRUE(r.done());
  }

  // Deliberately not a divisor of any frame length: chunk boundaries cut
  // through frames, gaps, and filter delay lines.
  static constexpr std::size_t kGraphChunk = 997;
  static constexpr std::size_t kGraphChunks = 6;
};

std::uint64_t golden_graph_hash(core::Standard standard) {
  GoldenGraph g(standard);
  obs::StreamHash hash;
  g.run(GoldenGraph::kGraphChunks, hash);
  return hash.digest();
}

// ---------------------------------------------------------------------
// Standard x channel combos: pin representative members of the channel
// library (rf/channels) streamed behind a Submodel. The tx-hash column
// is unused for these rows (one channel block, no second waveform).
// ---------------------------------------------------------------------

struct ChannelCombo {
  const char* name;      ///< row key in golden_traces.inc
  core::Standard standard;
  const char* preset;    ///< registry token
};

constexpr ChannelCombo kChannelCombos[] = {
    {"IEEE 802.11a + itu_veh_a", core::Standard::kWlan80211a, "itu_veh_a"},
    {"IEEE 802.11a + sui_3", core::Standard::kWlan80211a, "sui_3"},
    {"DRM + ccir_poor", core::Standard::kDrm, "ccir_poor"},
};

constexpr std::uint64_t kChannelSeed = 0xC44A;

/// Submodel -> one channel-library block, mirroring GoldenGraph's
/// streaming/checkpoint discipline.
struct ChannelGraph {
  rf::Submodel source;
  rf::Chain chain;

  explicit ChannelGraph(const ChannelCombo& combo)
      : source(core::profile_for(combo.standard), 31, kPayloadSeed) {
    rf::channels::MakeOptions opts;
    opts.sample_rate = core::profile_for(combo.standard).sample_rate;
    opts.seed = kChannelSeed;
    chain.add_ptr(rf::channels::make_preset(combo.preset, opts));
  }

  /// Stream `total` samples in chunks of `chunk`, folding into `hash`.
  void run(std::size_t total, std::size_t chunk, obs::StreamHash& hash) {
    cvec in;
    cvec out;
    for (std::size_t off = 0; off < total;) {
      const std::size_t n = std::min(chunk, total - off);
      source.pull(n, in);
      chain.process(in, out);
      hash.update(out);
      off += n;
    }
  }

  std::vector<std::uint8_t> checkpoint() const {
    StateWriter w;
    w.begin_node(source.name());
    source.save_state(w);
    w.end_node();
    w.begin_node(chain.name());
    chain.save_state(w);
    w.end_node();
    return w.bytes();
  }

  void restore(std::span<const std::uint8_t> bytes) {
    StateReader r(bytes);
    r.enter_node(source.name());
    source.load_state(r);
    r.exit_node();
    r.enter_node(chain.name());
    chain.load_state(r);
    r.exit_node();
    ASSERT_TRUE(r.done());
  }

  static constexpr std::size_t kTotal =
      GoldenGraph::kGraphChunk * GoldenGraph::kGraphChunks;
};

std::uint64_t channel_graph_hash(const ChannelCombo& combo) {
  ChannelGraph g(combo);
  obs::StreamHash hash;
  g.run(ChannelGraph::kTotal, GoldenGraph::kGraphChunk, hash);
  return hash.digest();
}

const GoldenEntry* find_golden(const std::string& name) {
  for (const GoldenEntry& e : kGoldenTraces) {
    if (name == e.standard) return &e;
  }
  return nullptr;
}

class GoldenTraces : public ::testing::TestWithParam<core::Standard> {};

TEST_P(GoldenTraces, MatchesCheckedInHash) {
  const std::string name = core::standard_name(GetParam());
  const GoldenEntry* golden = find_golden(name);
  ASSERT_NE(golden, nullptr)
      << name << " missing from golden_traces.inc -- rerun with --regen";
  const cvec samples = golden_burst(GetParam());
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(obs::hash_samples(samples), golden->hash)
      << name << ": waveform changed at the bit level. If intentional, "
      << "regenerate with: test_golden_traces --regen";
}

TEST_P(GoldenTraces, GraphRunMatchesCheckedInHash) {
  const std::string name = core::standard_name(GetParam());
  const GoldenEntry* golden = find_golden(name);
  ASSERT_NE(golden, nullptr)
      << name << " missing from golden_traces.inc -- rerun with --regen";
  EXPECT_EQ(golden_graph_hash(GetParam()), golden->graph_hash)
      << name << ": RF-graph stream changed at the bit level. If "
      << "intentional, regenerate with: test_golden_traces --regen";
}

// The checkpoint/restore acceptance test: interrupt the golden graph at
// a chunk boundary, snapshot it, restore the snapshot into a *freshly
// built* graph, finish the run there — and require the concatenated
// stream to hash to the same golden digest as the uninterrupted run.
TEST_P(GoldenTraces, SnapshotResumeIsBitIdentical) {
  const std::string name = core::standard_name(GetParam());
  const GoldenEntry* golden = find_golden(name);
  ASSERT_NE(golden, nullptr)
      << name << " missing from golden_traces.inc -- rerun with --regen";

  obs::StreamHash hash;
  std::vector<std::uint8_t> snapshot;
  {
    GoldenGraph first(GetParam());
    first.run(3, hash);
    snapshot = first.checkpoint();
    // `first` is destroyed here: resume must work from bytes alone.
  }
  GoldenGraph resumed(GetParam());
  resumed.restore(snapshot);
  resumed.run(GoldenGraph::kGraphChunks - 3, hash);
  EXPECT_EQ(hash.digest(), golden->graph_hash)
      << name << ": snapshot-resume diverged from the uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(Family, GoldenTraces,
                         ::testing::ValuesIn(core::kStandardFamily));

class GoldenChannelTraces
    : public ::testing::TestWithParam<ChannelCombo> {};

TEST_P(GoldenChannelTraces, GraphRunMatchesCheckedInHash) {
  const ChannelCombo& combo = GetParam();
  const GoldenEntry* golden = find_golden(combo.name);
  ASSERT_NE(golden, nullptr)
      << combo.name
      << " missing from golden_traces.inc -- rerun with --regen";
  EXPECT_EQ(channel_graph_hash(combo), golden->graph_hash)
      << combo.name << ": channel stream changed at the bit level. If "
      << "intentional, regenerate with: test_golden_traces --regen";
}

TEST_P(GoldenChannelTraces, OddChunkingIsBitIdentical) {
  const ChannelCombo& combo = GetParam();
  const GoldenEntry* golden = find_golden(combo.name);
  ASSERT_NE(golden, nullptr) << combo.name;
  ChannelGraph g(combo);
  obs::StreamHash hash;
  // 731 divides neither the total nor any frame length: chunk cuts
  // land mid-symbol, mid-fade and inside the TDL history window.
  g.run(ChannelGraph::kTotal, 731, hash);
  EXPECT_EQ(hash.digest(), golden->graph_hash)
      << combo.name << ": output depends on chunk boundaries";
}

TEST_P(GoldenChannelTraces, SnapshotMidFadeResumesBitIdentically) {
  const ChannelCombo& combo = GetParam();
  const GoldenEntry* golden = find_golden(combo.name);
  ASSERT_NE(golden, nullptr) << combo.name;
  obs::StreamHash hash;
  std::vector<std::uint8_t> snapshot;
  constexpr std::size_t kCut = 3 * GoldenGraph::kGraphChunk;
  {
    ChannelGraph first(combo);
    first.run(kCut, GoldenGraph::kGraphChunk, hash);
    snapshot = first.checkpoint();
  }
  ChannelGraph resumed(combo);
  resumed.restore(snapshot);
  resumed.run(ChannelGraph::kTotal - kCut, GoldenGraph::kGraphChunk,
              hash);
  EXPECT_EQ(hash.digest(), golden->graph_hash)
      << combo.name << ": snapshot-resume diverged mid-fade";
}

INSTANTIATE_TEST_SUITE_P(Combos, GoldenChannelTraces,
                         ::testing::ValuesIn(kChannelCombos));

}  // namespace

/// --regen: rewrite tests/golden_traces.inc in the source tree from the
/// current waveforms.
int regenerate() {
  const std::string path =
      std::string(OFDM_SOURCE_DIR) + "/tests/golden_traces.inc";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "// Golden output-stream hashes, one per family member:\n"
               "// {standard, tx burst hash, RF-graph stream hash}.\n"
               "// Generated by: test_golden_traces --regen -- do not "
               "edit by hand.\n");
  for (core::Standard s : core::kStandardFamily) {
    const cvec samples = golden_burst(s);
    const std::uint64_t tx_hash = obs::hash_samples(samples);
    const std::uint64_t graph_hash = golden_graph_hash(s);
    std::fprintf(f, "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                 core::standard_name(s).c_str(), tx_hash, graph_hash);
    std::printf("%-20s %016" PRIx64 "  %016" PRIx64 "\n",
                core::standard_name(s).c_str(), tx_hash, graph_hash);
  }
  std::fprintf(f,
               "// Standard x channel-library combos (tx-hash column "
               "unused, pinned 0).\n");
  for (const ChannelCombo& combo : kChannelCombos) {
    const std::uint64_t graph_hash = channel_graph_hash(combo);
    std::fprintf(f,
                 "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                 combo.name, std::uint64_t{0}, graph_hash);
    std::printf("%-28s %016x  %016" PRIx64 "\n", combo.name, 0,
                graph_hash);
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace ofdm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen") == 0) return ofdm::regenerate();
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
