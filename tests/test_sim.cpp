// Campaign-engine tests: deck parsing (errors name their field), grid
// expansion, the CI early-stop rule, checkpoint/resume byte-identity of
// the exported curves, thread-count invariance, and trials that do not
// depend on the runner's history.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"
#include "sim/deck.hpp"
#include "sim/estimator.hpp"
#include "sim/trial.hpp"

namespace {

using namespace ofdm;

// Small, fast deck used by the engine-level tests: 3 SNR points of
// 802.11a BPSK with a 256-bit payload finish in milliseconds.
const char* kSmokeDeck =
    "name=test_sim\n"
    "standard=wlan_80211a@6\n"
    "snr_db=4,8,12\n"
    "payload_bits=256\n"
    "trials.min=8\n"
    "trials.max=24\n"
    "trials.batch=8\n"
    "stop.rel_ci=0.25\n"
    "seed=7\n";

std::string error_message(const std::string& deck_text) {
  try {
    sim::parse_deck(deck_text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Deck parsing

TEST(SimDeck, ParsesFullDeck) {
  const auto d = sim::parse_deck(
      "name=full\n"
      "standard=wlan_80211a@24,adsl\n"
      "snr_db=0:2:6,20\n"
      "channel=awgn,multipath\n"
      "multipath.rms_delay=2.5\n"
      "multipath.taps=6\n"
      "trials.min=4\ntrials.max=64\ntrials.batch=4\n"
      "stop.min_errors=10\nstop.rel_ci=0.5\nstop.confidence=0.9\n"
      "rx.equalize=0\npayload_bits=128\nseed=42\n");
  EXPECT_EQ(d.name, "full");
  ASSERT_EQ(d.standards.size(), 2u);
  EXPECT_EQ(d.standards[0].token, "wlan_80211a@24");
  EXPECT_EQ(d.standards[1].token, "adsl");
  // 0:2:6 expands inclusively, then the trailing single value.
  ASSERT_EQ(d.snr_db.size(), 5u);
  EXPECT_DOUBLE_EQ(d.snr_db[3], 6.0);
  EXPECT_DOUBLE_EQ(d.snr_db[4], 20.0);
  ASSERT_EQ(d.channels.size(), 2u);
  EXPECT_EQ(d.channels[1].kind, sim::ChannelPreset::Kind::kMultipath);
  EXPECT_DOUBLE_EQ(d.channels[1].rms_delay_samples, 2.5);
  EXPECT_EQ(d.channels[1].n_taps, 6u);
  EXPECT_FALSE(d.rx_equalize);
  EXPECT_EQ(d.min_errors, 10u);
  EXPECT_DOUBLE_EQ(d.stop_rel_ci, 0.5);
  EXPECT_EQ(d.seed, 42u);
}

TEST(SimDeck, CommentsAndBlankLinesIgnored) {
  const auto d = sim::parse_deck(
      "# a comment\n"
      "\n"
      "standard=drm@B   # trailing comment\n"
      "snr_db=10\n");
  ASSERT_EQ(d.standards.size(), 1u);
  EXPECT_EQ(d.standards[0].token, "drm@B");
}

TEST(SimDeck, ErrorsNameTheField) {
  // Every malformed value must surface the offending field, params_io
  // style, so a user can fix the deck without reading the parser.
  EXPECT_NE(error_message("snr_db=10\n").find("standard"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\n").find("snr_db"),
            std::string::npos);
  EXPECT_NE(
      error_message("standard=wlan_80211a\nsnr_db=abc\n").find("snr_db"),
      std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "trials.min=x\n")
                .find("trials.min"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "stop.confidence=1.5\n")
                .find("stop.confidence"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "channel=rayleigh\n")
                .find("channel"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a@7\nsnr_db=10\n")
                .find("standard"),
            std::string::npos);
  // Unknown keys are rejected (typo protection), naming the key.
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "trails.min=8\n")
                .find("trails.min"),
            std::string::npos);
}

TEST(SimDeck, ParsesStandardChannelPresets) {
  const auto d = sim::parse_deck(
      "standard=wlan_80211a@6\n"
      "snr_db=10\n"
      "channel=awgn,ccir_poor,itu_veh_a,sui_3,rician_k10,cfo_drift\n"
      "channel.seed=909\n"
      "channel.doppler_scale=2.5\n");
  ASSERT_EQ(d.channels.size(), 6u);
  EXPECT_EQ(d.channels[0].kind, sim::ChannelPreset::Kind::kAwgn);
  for (std::size_t i = 1; i < d.channels.size(); ++i) {
    EXPECT_EQ(d.channels[i].kind, sim::ChannelPreset::Kind::kStandard);
    EXPECT_EQ(d.channels[i].channel_seed, 909u);
    EXPECT_DOUBLE_EQ(d.channels[i].doppler_scale, 2.5);
  }
  EXPECT_EQ(d.channels[1].token, "ccir_poor");
  EXPECT_EQ(d.channels[5].token, "cfo_drift");
}

TEST(SimDeck, ChannelFuzzRejectsMalformedValues) {
  // Unknown presets name the field and list the registry.
  const std::string unknown = error_message(
      "standard=wlan_80211a\nsnr_db=10\nchannel=itu_ped_c\n");
  EXPECT_NE(unknown.find("channel"), std::string::npos);
  EXPECT_NE(unknown.find("itu_ped_c"), std::string::npos);
  EXPECT_NE(unknown.find("ccir_good"), std::string::npos);
  // Near-miss spellings of real presets still fail loudly.
  for (const char* bad : {"ccir-poor", "CCIR_POOR", "sui_7", "sui3",
                          "rician_k2", "watterson", "itu_veh_c"}) {
    EXPECT_NE(error_message(std::string("standard=wlan_80211a\n"
                                        "snr_db=10\nchannel=") +
                            bad + "\n")
                  .find("channel"),
              std::string::npos)
        << bad;
  }
  // Malformed channel parameters name their field.
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "channel=ccir_poor\nchannel.seed=-3\n")
                .find("channel.seed"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "channel=ccir_poor\nchannel.doppler_scale=0\n")
                .find("channel.doppler_scale"),
            std::string::npos);
  EXPECT_NE(error_message("standard=wlan_80211a\nsnr_db=10\n"
                          "channel=ccir_poor\nchannel.doppler_scale=x\n")
                .find("channel.doppler_scale"),
            std::string::npos);
}

TEST(SimDeck, DigestSeesChannelPresetAndParams) {
  const auto base = sim::parse_deck(
      "standard=adsl\nsnr_db=10\nchannel=ccir_poor\n");
  const auto other_preset = sim::parse_deck(
      "standard=adsl\nsnr_db=10\nchannel=ccir_good\n");
  const auto other_seed = sim::parse_deck(
      "standard=adsl\nsnr_db=10\nchannel=ccir_poor\nchannel.seed=6\n");
  const auto other_scale = sim::parse_deck(
      "standard=adsl\nsnr_db=10\nchannel=ccir_poor\n"
      "channel.doppler_scale=3\n");
  EXPECT_NE(sim::deck_digest(base), sim::deck_digest(other_preset));
  EXPECT_NE(sim::deck_digest(base), sim::deck_digest(other_seed));
  EXPECT_NE(sim::deck_digest(base), sim::deck_digest(other_scale));
}

TEST(SimDeck, GridExpansionCountAndOrder) {
  const auto d = sim::parse_deck(
      "standard=wlan_80211a@6,adsl\n"
      "snr_db=0:2:14\n"  // 8 points
      "channel=awgn,multipath,twisted_pair\n");
  const auto grid = sim::expand_grid(d);
  ASSERT_EQ(grid.size(), 2u * 3u * 8u);
  // Standard-major, then channel, then SNR; index equals position.
  EXPECT_EQ(grid[0].standard_index, 0u);
  EXPECT_EQ(grid[0].channel_index, 0u);
  EXPECT_DOUBLE_EQ(grid[0].snr_db, 0.0);
  EXPECT_EQ(grid[7].channel_index, 0u);
  EXPECT_DOUBLE_EQ(grid[7].snr_db, 14.0);
  EXPECT_EQ(grid[8].channel_index, 1u);
  EXPECT_EQ(grid[24].standard_index, 1u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
  }
}

TEST(SimDeck, RxModeListParsesAndExpands) {
  const auto d = sim::parse_deck(
      "standard=wlan_80211a@6\n"
      "snr_db=0,4\n"
      "channel=awgn,multipath\n"
      "rx=coded,uncoded\n");
  ASSERT_EQ(d.rx_modes.size(), 2u);
  EXPECT_EQ(d.rx_modes[0].token, "coded");
  EXPECT_EQ(d.rx_modes[0].mode, rx::RxMode::kCoded);
  EXPECT_EQ(d.rx_modes[1].token, "uncoded");
  EXPECT_EQ(d.rx_modes[1].mode, rx::RxMode::kUncoded);

  // Grid order: standard-major, then channel, then rx, then SNR.
  const auto grid = sim::expand_grid(d);
  ASSERT_EQ(grid.size(), 1u * 2u * 2u * 2u);
  EXPECT_EQ(grid[0].rx_index, 0u);
  EXPECT_DOUBLE_EQ(grid[0].snr_db, 0.0);
  EXPECT_EQ(grid[1].rx_index, 0u);
  EXPECT_DOUBLE_EQ(grid[1].snr_db, 4.0);
  EXPECT_EQ(grid[2].rx_index, 1u);
  EXPECT_EQ(grid[3].rx_index, 1u);
  EXPECT_EQ(grid[4].channel_index, 1u);
  EXPECT_EQ(grid[4].rx_index, 0u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
  }
}

TEST(SimDeck, RxModeErrorsAndDefaults) {
  // A deck without the key keeps the single historical (coded) entry.
  const auto d = sim::parse_deck("standard=adsl\nsnr_db=10\n");
  ASSERT_EQ(d.rx_modes.size(), 1u);
  EXPECT_EQ(d.rx_modes[0].mode, rx::RxMode::kCoded);

  EXPECT_NE(error_message("standard=adsl\nsnr_db=10\nrx=sideways\n")
                .find("rx"),
            std::string::npos);
  EXPECT_NE(error_message("standard=adsl\nsnr_db=10\nrx=coded,coded\n")
                .find("rx"),
            std::string::npos);
}

TEST(SimDeck, DigestStableForDefaultRxAndSensitiveOtherwise) {
  // Legacy decks must keep their historical digests: an explicit
  // rx=coded is the default and must not move the digest (checkpoints
  // recorded before the rx dimension existed still resume).
  const auto legacy = sim::parse_deck("standard=adsl\nsnr_db=10\n");
  const auto explicit_coded =
      sim::parse_deck("standard=adsl\nsnr_db=10\nrx=coded\n");
  const auto both =
      sim::parse_deck("standard=adsl\nsnr_db=10\nrx=coded,uncoded\n");
  const auto uncoded =
      sim::parse_deck("standard=adsl\nsnr_db=10\nrx=uncoded\n");
  EXPECT_EQ(sim::deck_digest(legacy), sim::deck_digest(explicit_coded));
  EXPECT_NE(sim::deck_digest(legacy), sim::deck_digest(both));
  EXPECT_NE(sim::deck_digest(legacy), sim::deck_digest(uncoded));
  EXPECT_NE(sim::deck_digest(both), sim::deck_digest(uncoded));
}

TEST(SimDeck, FecSuffixOverlaysReferenceCode) {
  // "+fec" overlays the family's reference FEC on an uncoded profile.
  const auto adsl = sim::parse_standard_token("adsl+fec");
  EXPECT_EQ(adsl.token, "adsl+fec");
  EXPECT_TRUE(adsl.params.fec.rs_enabled);
  EXPECT_EQ(adsl.params.fec.rs_n, 255u);
  EXPECT_EQ(adsl.params.fec.rs_k, 239u);

  const auto drm = sim::parse_standard_token("drm@B+fec");
  EXPECT_TRUE(drm.params.fec.conv_enabled);

  // The ADSL2+ spelling keeps its own trailing '+'.
  const auto adsl2 = sim::parse_standard_token("adsl2++fec");
  EXPECT_EQ(adsl2.token, "adsl2++fec");
  EXPECT_TRUE(adsl2.params.fec.rs_enabled);

  // Already-coded standards are unchanged by the overlay.
  const auto dvbt = sim::parse_standard_token("dvbt+fec");
  const auto plain = sim::parse_standard_token("dvbt");
  EXPECT_EQ(dvbt.params.fec.rs_n, plain.params.fec.rs_n);
  EXPECT_EQ(dvbt.params.fec.conv_enabled,
            plain.params.fec.conv_enabled);
}

TEST(SimDeck, DigestIgnoresCommentsButNotParameters) {
  const auto a = sim::parse_deck("standard=adsl\nsnr_db=10\n");
  const auto b = sim::parse_deck("# different text\nstandard=adsl\n"
                                 "snr_db=10\n");
  const auto c = sim::parse_deck("standard=adsl\nsnr_db=10\nseed=2\n");
  EXPECT_EQ(sim::deck_digest(a), sim::deck_digest(b));
  EXPECT_NE(sim::deck_digest(a), sim::deck_digest(c));
}

// ---------------------------------------------------------------------------
// Early stopping

sim::ScenarioDeck stop_deck() {
  auto d = sim::parse_deck(
      "standard=wlan_80211a@6\nsnr_db=0\n"
      "trials.min=8\ntrials.max=1000\ntrials.batch=8\n"
      "stop.min_errors=20\nstop.rel_ci=0.25\n");
  return d;
}

TEST(SimEstimator, RoundScheduleIsMinThenBatches) {
  const auto d = stop_deck();
  sim::PointState s;
  EXPECT_EQ(sim::next_round_target(d, s), 8u);
  s.trials = 8;
  EXPECT_EQ(sim::next_round_target(d, s), 16u);
  s.trials = 996;
  EXPECT_EQ(sim::next_round_target(d, s), 1000u);  // clamped to cap
}

TEST(SimEstimator, CiStopTriggersAtConfiguredWidth) {
  const auto d = stop_deck();

  // Plenty of errors over plenty of bits: BER 0.05 with n = 100k gives
  // a Wilson 95% CI far narrower than 25% of the estimate -> CI stop.
  sim::PointState tight;
  tight.trials = 16;
  tight.bits = 100000;
  tight.errors = 5000;
  sim::evaluate_stop(d, tight);
  EXPECT_TRUE(tight.done);
  EXPECT_EQ(tight.reason, sim::StopReason::kCiWidth);

  // Same BER but only 400 bits: the interval is wider than 25% of the
  // estimate, so the point keeps sampling.
  sim::PointState wide;
  wide.trials = 16;
  wide.bits = 400;
  wide.errors = 20;
  sim::evaluate_stop(d, wide);
  EXPECT_FALSE(wide.done);

  // Below min_errors never CI-stops, however tight the interval looks.
  sim::PointState few;
  few.trials = 16;
  few.bits = 1000000;
  few.errors = 19;
  sim::evaluate_stop(d, few);
  EXPECT_FALSE(few.done);

  // A zero-error point runs to the trial cap.
  sim::PointState clean;
  clean.trials = 1000;
  clean.bits = 1000000;
  clean.errors = 0;
  sim::evaluate_stop(d, clean);
  EXPECT_TRUE(clean.done);
  EXPECT_EQ(clean.reason, sim::StopReason::kMaxTrials);
}

TEST(SimEstimator, EngineStopsEarlyWhenCiAllowsIt) {
  // At 0 dB uncoded BPSK the BER is high, so errors accumulate fast; a
  // loose 90% relative CI should stop well before the 200-trial cap.
  auto d = sim::parse_deck(
      "standard=wlan_80211a@6\nsnr_db=0\npayload_bits=256\n"
      "trials.min=8\ntrials.max=200\ntrials.batch=8\n"
      "stop.min_errors=10\nstop.rel_ci=0.9\nseed=3\n");
  const auto result = sim::Campaign(d).run();
  ASSERT_EQ(result.points.size(), 1u);
  const auto& p = result.points[0].state;
  EXPECT_TRUE(p.done);
  EXPECT_EQ(p.reason, sim::StopReason::kCiWidth);
  EXPECT_LT(p.trials, 200u);
  EXPECT_GE(p.trials, 8u);
}

// ---------------------------------------------------------------------------
// Determinism: thread invariance and checkpoint/resume

TEST(SimCampaign, CurvesAreThreadCountInvariant) {
  sim::Campaign c1{sim::parse_deck(kSmokeDeck)};
  sim::Campaign c4{sim::parse_deck(kSmokeDeck)};
  sim::RunOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  const auto r1 = c1.run(o1);
  const auto r4 = c4.run(o4);
  EXPECT_EQ(sim::curves_json(c1.deck(), r1),
            sim::curves_json(c4.deck(), r4));
  EXPECT_EQ(sim::curves_csv(c1.deck(), r1),
            sim::curves_csv(c4.deck(), r4));
}

TEST(SimCampaign, ResumeAfterCheckpointIsByteIdentical) {
  const std::string ckpt =
      ::testing::TempDir() + "/test_sim_ckpt.bin";
  std::remove(ckpt.c_str());

  // Reference: straight through, single thread.
  sim::Campaign ref{sim::parse_deck(kSmokeDeck)};
  const auto ref_result = ref.run();
  const std::string ref_json = sim::curves_json(ref.deck(), ref_result);

  // Interrupted: halt after two rounds (mid-campaign), then resume at a
  // different thread count from the checkpoint.
  sim::Campaign halted{sim::parse_deck(kSmokeDeck)};
  sim::RunOptions halt_opts;
  halt_opts.threads = 2;
  halt_opts.checkpoint_path = ckpt;
  halt_opts.halt_after_rounds = 2;
  const auto halted_result = halted.run(halt_opts);
  EXPECT_TRUE(halted_result.halted);

  sim::Campaign resumed{sim::parse_deck(kSmokeDeck)};
  sim::RunOptions resume_opts;
  resume_opts.threads = 3;
  resume_opts.checkpoint_path = ckpt;
  resume_opts.resume = true;
  const auto resumed_result = resumed.run(resume_opts);
  EXPECT_FALSE(resumed_result.halted);

  EXPECT_EQ(sim::curves_json(resumed.deck(), resumed_result), ref_json);
  std::remove(ckpt.c_str());
}

TEST(SimCampaign, StandardChannelCurvesAreThreadAndResumeInvariant) {
  // The per-trial channel realizations flow from the trial substream,
  // so curves over the channel-library presets must stay byte-identical
  // across thread counts and checkpoint cuts, like every other preset.
  const char* deck_text =
      "name=test_sim_channels\n"
      "standard=wlan_80211a@6\n"
      "snr_db=8,14\n"
      "channel=sui_3,rician_k5,cfo_drift\n"
      "payload_bits=256\n"
      "trials.min=4\ntrials.max=8\ntrials.batch=4\n"
      "seed=13\n";

  sim::Campaign c1{sim::parse_deck(deck_text)};
  sim::Campaign c4{sim::parse_deck(deck_text)};
  sim::RunOptions o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  const auto r1 = c1.run(o1);
  const auto r4 = c4.run(o4);
  const std::string ref_json = sim::curves_json(c1.deck(), r1);
  EXPECT_EQ(ref_json, sim::curves_json(c4.deck(), r4));

  const std::string ckpt =
      ::testing::TempDir() + "/test_sim_channels_ckpt.bin";
  std::remove(ckpt.c_str());
  sim::Campaign halted{sim::parse_deck(deck_text)};
  sim::RunOptions halt_opts;
  halt_opts.threads = 2;
  halt_opts.checkpoint_path = ckpt;
  halt_opts.halt_after_rounds = 1;
  EXPECT_TRUE(halted.run(halt_opts).halted);

  sim::Campaign resumed{sim::parse_deck(deck_text)};
  sim::RunOptions resume_opts;
  resume_opts.threads = 3;
  resume_opts.checkpoint_path = ckpt;
  resume_opts.resume = true;
  const auto resumed_result = resumed.run(resume_opts);
  EXPECT_EQ(sim::curves_json(resumed.deck(), resumed_result), ref_json);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Runner reuse: a trial must not see what earlier trials left behind

TEST(LinkRunner, TrialIsIndependentOfRunnerHistory) {
  // The campaign keeps one warm runner per worker, so a trial may run on
  // a fresh runner or after any other trials of its point, depending on
  // the schedule. Either way it must give the same result, field for
  // field, on every link the runner builds: coded and uncoded, soft and
  // hard, AWGN, multipath and a fading preset, with and without the PA
  // and phase noise.
  const char* decks[] = {
      "name=history_soft\n"
      "standard=wlan_80211a@12,wman_80216a,adsl+fec\n"
      "channel=awgn,multipath,sui_3\n"
      "rx=coded,uncoded\nrx.soft=1\n"
      "pa.backoff_db=4\nphase_noise.linewidth_hz=200\n"
      "payload_bits=512\nsnr_db=7\nseed=21\n",
      "name=history_hard\n"
      "standard=wlan_80211a@12,wman_80216a,adsl+fec\n"
      "channel=awgn,multipath,sui_3\n"
      "rx=coded,uncoded\n"
      "payload_bits=512\nsnr_db=7\nseed=22\n",
  };
  constexpr std::size_t kTrial = 3;
  for (const char* text : decks) {
    const sim::ScenarioDeck deck = sim::parse_deck(text);
    for (const sim::PointSpec& point : sim::expand_grid(deck)) {
      sim::TrialResult fresh;
      sim::LinkRunner(deck, point).run_trials(kTrial, {&fresh, 1});

      sim::LinkRunner warm(deck, point);
      sim::TrialResult others[3];
      warm.run_trials(5, {others, 1});
      warm.run_trials(0, {others + 1, 2});
      sim::TrialResult again;
      warm.run_trials(kTrial, {&again, 1});

      const std::string where = deck.name + " point " +
                                std::to_string(point.index);
      EXPECT_GT(fresh.bits, 0u) << where;
      EXPECT_EQ(again.bits, fresh.bits) << where;
      EXPECT_EQ(again.errors, fresh.errors) << where;
      EXPECT_EQ(again.evm_err2, fresh.evm_err2) << where;
      EXPECT_EQ(again.evm_ref2, fresh.evm_ref2) << where;
    }
  }
}

TEST(SimCheckpoint, RejectsDigestMismatch) {
  const auto a = sim::parse_deck(kSmokeDeck);
  auto b = a;
  b.seed = 99;  // campaign-relevant change -> different digest

  std::vector<sim::PointState> points(sim::expand_grid(a).size());
  points[0].trials = 8;
  points[0].bits = 2048;
  points[0].errors = 31;
  const auto bytes = sim::save_checkpoint(a, points);

  std::vector<sim::PointState> restored(points.size());
  ASSERT_NO_THROW(sim::load_checkpoint(bytes, a, restored));
  ASSERT_EQ(restored.size(), points.size());
  EXPECT_EQ(restored[0].trials, 8u);
  EXPECT_EQ(restored[0].errors, 31u);

  EXPECT_THROW(sim::load_checkpoint(bytes, b, restored), StateError);
}

TEST(SimAggregator, CsvHasHeaderAndOneRowPerPoint) {
  sim::Campaign c{sim::parse_deck(kSmokeDeck)};
  const auto result = c.run();
  const std::string csv = sim::curves_csv(c.deck(), result);
  EXPECT_EQ(csv.rfind("standard,channel,rx,snr_db,", 0), 0u);
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + result.points.size());
}

}  // namespace
