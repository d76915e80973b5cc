// Parameter-deck serialization tests: every family member round-trips
// through the text format exactly, edited decks parse, malformed decks
// are rejected with diagnostics, and a fixed-seed fuzz sweep drives
// parse -> serialize -> parse over the whole random configuration space.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/params_io.hpp"
#include "core/profiles.hpp"
#include "core/transmitter.hpp"
#include "random_params.hpp"

namespace ofdm::core {
namespace {

class FamilyDecks : public ::testing::TestWithParam<Standard> {};

TEST_P(FamilyDecks, TextRoundTripIsExact) {
  const OfdmParams original = profile_for(GetParam());
  const OfdmParams back = from_text(to_text(original));
  // Bitwise-equivalent configuration: zero parameter distance and
  // identical derived quantities.
  EXPECT_EQ(parameter_distance(original, back), 0u);
  EXPECT_EQ(back.tone_map, original.tone_map);
  EXPECT_EQ(back.bit_table, original.bit_table);
  EXPECT_EQ(back.variant, original.variant);
  EXPECT_EQ(back.pilots.base_values.size(),
            original.pilots.base_values.size());
  EXPECT_EQ(coded_bits_per_symbol(back), coded_bits_per_symbol(original));
}

TEST_P(FamilyDecks, DeserializedDeckDrivesTheSameWaveform) {
  const OfdmParams original = profile_for(GetParam());
  const OfdmParams back = from_text(to_text(original));
  Transmitter tx_a(original);
  Transmitter tx_b(back);
  Rng rng(5);
  const bitvec payload = rng.bits(
      std::min<std::size_t>(tx_a.recommended_payload_bits(), 1000));
  const auto burst_a = tx_a.modulate(payload);
  const auto burst_b = tx_b.modulate(payload);
  ASSERT_EQ(burst_a.samples.size(), burst_b.samples.size());
  for (std::size_t i = 0; i < burst_a.samples.size(); ++i) {
    ASSERT_EQ(burst_a.samples[i], burst_b.samples[i]) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Family, FamilyDecks,
                         ::testing::ValuesIn(kStandardFamily));

TEST(ParamsIo, CommentsAndBlankLinesAreIgnored) {
  std::string deck = to_text(profile_wlan_80211a());
  deck = "# a leading comment\n\n" + deck + "\n  # trailing comment\n";
  EXPECT_NO_THROW(from_text(deck));
}

TEST(ParamsIo, EditedDeckChangesTheModel) {
  // The APLAC-user workflow: edit one line of the deck, reload.
  std::string deck = to_text(profile_wlan_80211a());
  const std::size_t pos = deck.find("cp_len=16");
  ASSERT_NE(pos, std::string::npos);
  deck.replace(pos, 9, "cp_len=32");
  const OfdmParams edited = from_text(deck);
  EXPECT_EQ(edited.cp_len, 32u);
  EXPECT_NO_THROW(Transmitter{edited});
}

TEST(ParamsIo, MissingKeyIsRejected) {
  std::string deck = to_text(profile_wlan_80211a());
  const std::size_t pos = deck.find("fft_size=");
  deck.erase(pos, deck.find('\n', pos) - pos + 1);
  EXPECT_THROW(from_text(deck), ConfigError);
}

TEST(ParamsIo, UnknownKeyIsRejected) {
  const std::string deck =
      to_text(profile_wlan_80211a()) + "mystery_knob=42\n";
  EXPECT_THROW(from_text(deck), ConfigError);
}

TEST(ParamsIo, InvalidConfigurationIsRejectedAtParse) {
  std::string deck = to_text(profile_wlan_80211a());
  // Shrink the FFT without shrinking the tone map: validate() must
  // catch the inconsistency during from_text().
  const std::size_t pos = deck.find("fft_size=64");
  deck.replace(pos, 11, "fft_size=32");
  EXPECT_THROW(from_text(deck), ConfigError);
}

TEST(ParamsIo, DeckIsHumanReadable) {
  const std::string deck = to_text(profile_drm(DrmMode::kB));
  EXPECT_NE(deck.find("# OFDM Mother Model parameter deck: DRM"),
            std::string::npos);
  EXPECT_NE(deck.find("fft_size=1024"), std::string::npos);
  EXPECT_NE(deck.find("sample_rate=48000"), std::string::npos);
}

// --- Fixed-seed fuzz: the whole random configuration space must
// round-trip parse -> serialize -> parse with the second serialization a
// fixed point (byte-identical deck).

class DeckFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DeckFuzz, RandomConfigRoundTripsToAFixedPoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);
  const OfdmParams original = ofdm::test::random_params(rng);
  const std::string deck = to_text(original);
  OfdmParams back;
  ASSERT_NO_THROW(back = from_text(deck)) << deck;
  EXPECT_EQ(parameter_distance(original, back), 0u) << deck;
  EXPECT_EQ(back.tone_map, original.tone_map);
  EXPECT_EQ(back.bit_table, original.bit_table);
  // Serialize the reparsed set: byte-identical (canonical form).
  EXPECT_EQ(to_text(back), deck);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeckFuzz, ::testing::Range(0, 30));

// --- Malformed decks must be rejected with ConfigError diagnostics, not
// accepted, crash, or hang.

class MalformedDeck : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedDeck, MutatedLineIsRejected) {
  std::string deck = to_text(profile_wlan_80211a());
  deck += GetParam();
  deck += "\n";
  EXPECT_THROW(from_text(deck), ConfigError) << "appended: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Lines, MalformedDeck,
    ::testing::Values("fft_size=banana",       // non-numeric value
                      "fft_size=",             // truncated value
                      "fft_size",              // missing '='
                      "fft_size=-64",          // negative size
                      "fft_size=0",            // degenerate size
                      "cp_len=999999999999999999999999",  // overflow
                      "sample_rate=nan",       // non-finite rate
                      "=42",                   // empty key
                      "mystery_knob=1",        // unknown key
                      "fec.conv.k=0",          // num_states() shift by -1
                      "fec.conv.k=1",          // no trellis memory
                      "fec.conv.k=10",         // above the 256-state cap
                      "fec.conv.k=24",         // 2^23 states
                      "fec.conv.k=4294967303",  // 2^32 + 7: no wrap to 7
                      "fec.conv.generators=0,0171",     // zero generator
                      "fec.conv.generators=0133,0200",  // >= 2^K
                      "fec.conv.generators=4294967387,0171"));  // 2^32+0133

TEST(ParamsIo, ConvCodeBoundsNameTheField) {
  const std::string deck = to_text(profile_wlan_80211a());
  auto message = [&](const std::string& extra) {
    try {
      from_text(deck + extra);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("fec.conv.k=0\n").find("fec.conv.k"), std::string::npos);
  EXPECT_NE(message("fec.conv.generators=0133,0400\n")
                .find("fec.conv.generators"),
            std::string::npos);
  // Five generators with a matching five-row puncture pattern: only the
  // generator-count bound can reject it.
  EXPECT_NE(message("fec.conv.generators=0133,0171,0165,0117,0135\n"
                    "fec.puncture=1/1/1/1/1\n")
                .find("fec.conv.generators"),
            std::string::npos);
  // The bounds themselves are inclusive.
  EXPECT_EQ(message("fec.conv.k=9\nfec.conv.generators=0561,0753\n"),
            "accepted");
}

TEST(ParamsIo, GarbageBytesAreRejected) {
  EXPECT_THROW(from_text("\x01\x02\xff not a deck"), ConfigError);
  EXPECT_THROW(from_text("fft_size=64"), ConfigError);  // lone key
}

TEST(ParamsIo, EmptyAndCommentOnlyDecksAreRejected) {
  EXPECT_THROW(from_text(""), ConfigError);
  EXPECT_THROW(from_text("# nothing but comments\n\n"), ConfigError);
}

}  // namespace
}  // namespace ofdm::core
