// ofdm_campaign: run a Monte-Carlo link-level campaign from a scenario
// deck.
//
//   ofdm_campaign <deck-file> [--threads N] [--out PREFIX]
//                 [--checkpoint FILE] [--resume]
//                 [--halt-after-rounds N] [--trace FILE] [--quiet]
//
// Reads the deck, expands the standard x channel x SNR grid, sweeps it
// under the work-stealing scheduler, and writes <PREFIX>.json and
// <PREFIX>.csv BER/EVM curves (deterministic bytes for a given deck —
// any thread count, any checkpoint/resume cut). With --checkpoint the
// campaign state persists at every round boundary; --resume picks an
// interrupted sweep up exactly where it stopped. --halt-after-rounds
// simulates a mid-run kill for the CI resume check (exit code 3).
// --trace FILE records obs::Tracer spans (every chain block of every
// trial, the transmitter) for the run and writes them as Chrome trace
// JSON; the curves are the same bytes as an untraced run.
// --list-channels prints the named channel-model presets a deck's
// channel= key accepts (beyond awgn/multipath/twisted_pair) and exits.
// --list-rx prints the receiver instance the RX Mother Model
// reconfigures into for each of the ten family standards and exits.
//
// SIGINT/SIGTERM request a graceful stop: in-flight rounds drain, a
// final atomic checkpoint is written, curves for the completed state
// are exported, and the process exits with the documented halt code 3
// (same contract as --halt-after-rounds) instead of dying mid-write.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/profiles.hpp"
#include "core/standard.hpp"
#include "obs/trace.hpp"
#include "rf/channels/registry.hpp"
#include "rx/mother/descriptor.hpp"
#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"

namespace {

// The handler only performs an atomic store (async-signal-safe); the
// campaign polls the token between trials and at round boundaries.
ofdm::sim::CancelToken g_stop;

extern "C" void handle_stop_signal(int) { g_stop.cancel(); }

void install_stop_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <deck-file> [--threads N] [--out PREFIX]\n"
      "          [--checkpoint FILE] [--resume] [--halt-after-rounds N]\n"
      "          [--trace FILE] [--quiet]\n"
      "       %s --list-channels\n"
      "       %s --list-rx\n",
      argv0, argv0, argv0);
  return 2;
}

int list_channels() {
  std::printf("%-14s %-10s %7s %10s %6s  %s\n", "preset", "family",
              "paths", "spread_us", "fD_Hz", "description");
  for (const auto& p : ofdm::rf::channels::presets()) {
    std::printf("%-14s %-10s %7zu %10.2f %6.2f  %s%s\n", p.name.c_str(),
                p.family.c_str(), p.paths, p.delay_spread_us,
                p.doppler_hz, p.description.c_str(),
                p.time_varying ? "" : " [static]");
  }
  return 0;
}

int list_rx() {
  std::printf("%-12s %-14s %-15s %-19s %-15s %-11s %4s\n", "standard",
              "sync", "equalizer", "demapper", "inner", "outer", "soft");
  for (const ofdm::core::Standard s : ofdm::core::kStandardFamily) {
    const auto params = ofdm::core::profile_for(s);
    const auto d = ofdm::rx::describe_receiver(params);
    std::printf("%-12s %-14s %-15s %-19s %-15s %-11s %4s\n",
                ofdm::core::standard_name(s).c_str(), d.sync.c_str(),
                d.equalizer.c_str(), d.demapper.c_str(),
                d.inner_code.c_str(), d.outer_code.c_str(),
                d.soft_capable ? "yes" : "no");
    std::printf("%-12s   %s\n", "", d.chain.c_str());
  }
  return 0;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string deck_path;
  std::string out_prefix = "campaign";
  ofdm::sim::RunOptions opts;
  std::string trace_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      opts.threads = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--out") {
      out_prefix = next();
    } else if (arg == "--checkpoint") {
      opts.checkpoint_path = next();
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--halt-after-rounds") {
      opts.halt_after_rounds = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-channels") {
      return list_channels();
    } else if (arg == "--list-rx") {
      return list_rx();
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return usage(argv[0]);
    } else if (deck_path.empty()) {
      deck_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (deck_path.empty()) return usage(argv[0]);
  if (opts.resume && opts.checkpoint_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint FILE\n");
    return 2;
  }

  try {
    std::ifstream in(deck_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot read deck %s\n",
                   deck_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();

    ofdm::sim::Campaign campaign(ofdm::sim::parse_deck(text.str()));
    const auto& deck = campaign.deck();
    if (!quiet) {
      std::printf("campaign '%s': %zu standard(s) x %zu channel(s) x "
                  "%zu SNR point(s) = %zu grid points, seed %llu, "
                  "threads %zu%s\n",
                  deck.name.c_str(), deck.standards.size(),
                  deck.channels.size(), deck.snr_db.size(),
                  campaign.grid().size(),
                  static_cast<unsigned long long>(deck.seed),
                  opts.threads, opts.resume ? " [resume]" : "");
    }

    install_stop_handlers();
    opts.cancel = &g_stop;
    ofdm::obs::Tracer& tracer = ofdm::obs::Tracer::instance();
    if (!trace_path.empty()) tracer.enable();
    const auto result = campaign.run(opts);
    if (!trace_path.empty()) {
      tracer.disable();
      if (!tracer.write_chrome_trace_file(trace_path)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     trace_path.c_str());
        return 1;
      }
    }

    const std::string json_path = out_prefix + ".json";
    const std::string csv_path = out_prefix + ".csv";
    if (!write_file(json_path,
                    ofdm::sim::curves_json(deck, result)) ||
        !write_file(csv_path, ofdm::sim::curves_csv(deck, result))) {
      std::fprintf(stderr, "error: cannot write curves to %s.{json,csv}\n",
                   out_prefix.c_str());
      return 1;
    }

    if (!quiet) {
      std::fputs(ofdm::sim::timing_table(result).c_str(), stdout);
      std::printf("wrote %s and %s\n", json_path.c_str(),
                  csv_path.c_str());
    }
    if (result.halted) {
      if (!quiet) {
        if (result.cancelled) {
          if (opts.checkpoint_path.empty()) {
            std::printf("interrupted by signal after %zu round(s)\n",
                        result.rounds_completed);
          } else {
            std::printf("interrupted by signal after %zu round(s); "
                        "final checkpoint written, resume with "
                        "--checkpoint %s --resume\n",
                        result.rounds_completed,
                        opts.checkpoint_path.c_str());
          }
        } else {
          std::printf("halted after %zu round(s); resume with "
                      "--checkpoint %s --resume\n",
                      result.rounds_completed,
                      opts.checkpoint_path.c_str());
        }
      }
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
