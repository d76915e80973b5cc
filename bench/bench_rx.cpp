// RX Mother Model stage throughput per standard: synchronize (timing
// acquisition), estimate_equalizer (training-based channel estimation),
// demap_soft (the separable max-log LLR demapper over a block of data
// cells) and soft-decision Viterbi decoding, each timed in isolation on
// the standard's own burst/constellation/code.
//
// Stages a standard's receiver does not engage are skipped: DMT
// standards have no fixed constellation (no demap_soft row), uncoded
// profiles have no Viterbi row, and standards without a training
// section have no equalize row. Every row reports ops/s where one op is
// one invocation over the prepared burst-sized input. The JSON goes to
// BENCH_rx.json at the repo root and is gated by bench/regress.py --rx
// (machine-relative, like --sim).
//
// Usage:
//   bench_rx [--trials N] [--out FILE] [--quiet]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "coding/convolutional.hpp"
#include "coding/viterbi.hpp"
#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "mapping/constellation.hpp"
#include "rx/mother/descriptor.hpp"
#include "rx/mother/mother_rx.hpp"
#include "sim/deck.hpp"

namespace {

using namespace ofdm;

// Deck tokens for the whole family (one representative variant each).
const char* kTokens[] = {
    "wlan_80211a@12", "wlan_80211g@24", "adsl", "drm@B", "vdsl",
    "dab",            "dvbt",           "wman_80216a",   "homeplug",
    "adsl2+",
};

// Defeats dead-code elimination of the timed bodies.
volatile double g_sink = 0.0;

struct Row {
  std::string name;
  std::size_t trials;
  double ops_per_second;
};

// Best-of-3 timed loop: one warm-up call, then three reps of `trials`
// invocations; the fastest rep wins (single-shot wall times on a shared
// host swing by more than the effects this bench resolves).
template <typename Fn>
double ops_per_second(std::size_t trials, Fn&& fn) {
  fn();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < trials; ++i) fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double ops = s > 0.0 ? static_cast<double>(trials) / s : 0.0;
    if (ops > best) best = ops;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 32;
  std::string out_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trials") {
      trials = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "usage: bench_rx [--trials N] [--out FILE]"
                   " [--quiet]\n";
      return 2;
    }
  }
  if (trials == 0) trials = 1;

  std::vector<Row> rows;
  for (const char* token : kTokens) {
    const auto spec = sim::parse_standard_token(token);
    const auto& params = spec.params;
    const auto desc = rx::describe_receiver(params);

    core::Transmitter tx(params);
    rx::MotherReceiver rx(params);
    Rng rng = Rng::substream(99, 0, 0);
    const bitvec payload = rng.bits(tx.recommended_payload_bits());
    core::Transmitter::Burst burst;
    tx.modulate_into(payload, burst);

    auto add = [&](const char* stage, double ops) {
      rows.push_back({std::string(token) + "/" + stage, trials, ops});
      if (!quiet) {
        std::printf("%-28s %8zu trials  %10.1f ops/s\n",
                    rows.back().name.c_str(), trials, ops);
      }
    };

    add("sync", ops_per_second(trials, [&] {
          const auto rep =
              rx.synchronize(burst.samples, params.sample_rate);
          g_sink = g_sink + rep.metric +
                   static_cast<double>(rep.offset);
        }));

    if (desc.equalizer != "none") {
      add("equalize", ops_per_second(trials, [&] {
            const cvec eq = rx.estimate_equalizer(burst.samples);
            g_sink = g_sink + (eq.empty() ? 0.0 : eq[0].real());
          }));
    }

    if (params.mapping == core::MappingKind::kFixed) {
      // A burst-sized block of noiseless cells through the max-log LLR
      // demapper (one noise floor for every cell, like the receiver's
      // equalizer-flat path).
      const auto cons = mapping::Constellation::make(params.scheme);
      const std::size_t n_cells = 4096;
      const bitvec cell_bits = rng.bits(n_cells * cons.bits());
      cvec cells;
      cons.map_into(cell_bits, cells);
      const double noise_var = 1.0;
      rvec llr;
      add("demap_soft", ops_per_second(trials, [&] {
            cons.demap_soft_into(cells, {&noise_var, 1}, llr);
            g_sink = g_sink + llr[0];
          }));
    }

    if (params.fec.conv_enabled) {
      // The inner code's soft decoder on a terminated random word
      // (unpunctured: the depuncture stage is not what this row
      // measures), into reused buffers as MotherReceiver runs it.
      const coding::ConvEncoder enc(params.fec.conv);
      const coding::ViterbiDecoder vit(params.fec.conv);
      const bitvec info = rng.bits(1024);
      const bitvec coded = enc.encode_terminated(info);
      rvec llr(coded.size());
      for (std::size_t i = 0; i < coded.size(); ++i) {
        llr[i] = coded[i] ? -1.0 : 1.0;
      }
      coding::ViterbiDecoder::Scratch scratch;
      bitvec out;
      add("viterbi", ops_per_second(trials, [&] {
            vit.decode_soft_terminated_into(llr, scratch, out);
            g_sink = g_sink + static_cast<double>(out.size());
          }));
    }
  }

  std::ostringstream json;
  json << "{\n \"trials\": " << trials << ",\n \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "  {\"name\": \"" << rows[i].name
         << "\", \"threads\": 1, \"trials\": " << rows[i].trials
         << ", \"ops_per_second\": " << rows[i].ops_per_second << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << " ]\n}\n";

  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    f << json.str();
    if (!quiet) std::cout << "wrote " << out_path << "\n";
  } else if (quiet) {
    std::cout << json.str();
  }
  return 0;
}
