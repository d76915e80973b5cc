// Campaign-engine throughput: one small 802.11a AWGN BER sweep run by
// sim::Campaign at 1 worker vs N workers.
//
// Early stopping is disabled (stop.rel_ci tiny) so every configuration
// executes the identical trial count — what changes between configs is
// only the work-stealing schedule, which also double-checks the
// thread-invariance contract on every bench run. The JSON goes to
// BENCH_sim.json at the repo root and is gated by
// bench/regress.py --sim (machine-relative).
//
// Usage:
//   bench_sim [--trials N] [--out FILE] [--quiet]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"

namespace {

using namespace ofdm;

sim::ScenarioDeck bench_deck(std::size_t trials) {
  std::ostringstream deck;
  deck << "name=bench_sim\n"
          "standard=wlan_80211a@24\n"
          "snr_db=2:4:14\n"  // 4 points
          "payload_bits=512\n"
          "trials.min=" << trials << "\n"
          "trials.max=" << trials << "\n"
          "trials.batch=8\n"
          "stop.rel_ci=1e-12\n"  // never CI-stop: fixed workload
          "seed=17\n";
  return sim::parse_deck(deck.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 96;
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
      std::cerr << "usage: bench_sim [--trials N] [--out FILE]"
                   " [--quiet]\n";
      return 2;
    }
  }

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t many = hw > 1 ? hw : 4;
  // threads1 runs first so the other config's speedup field is
  // relative to the single-threaded baseline.
  const std::size_t thread_counts[] = {1, many};

  std::ostringstream json;
  json << "{\n \"trials_per_point\": " << trials << ",\n \"configs\": [\n";
  double single_tps = 0.0;
  std::string reference_json;
  bool first = true;
  for (const std::size_t threads : thread_counts) {
    sim::Campaign campaign(bench_deck(trials));
    sim::RunOptions opts;
    opts.threads = threads;
    campaign.run(opts);  // warm-up (allocator, code paths)
    // Best-of-3: single-shot wall times on a shared host swing by more
    // than the effects this bench resolves (scheduling).
    auto result = campaign.run(opts);
    for (int rep = 1; rep < 3; ++rep) {
      auto again = campaign.run(opts);
      if (again.elapsed_seconds < result.elapsed_seconds) {
        result = std::move(again);
      }
    }

    std::size_t total_trials = 0;
    for (const auto& p : result.points) total_trials += p.state.trials;
    const double tps =
        static_cast<double>(total_trials) / result.elapsed_seconds;
    if (single_tps == 0.0) single_tps = tps;
    const double speedup = single_tps > 0.0 ? tps / single_tps : 0.0;

    // Free cross-check: the curve bytes must not depend on the thread
    // count.
    const std::string curves =
        sim::curves_json(campaign.deck(), result);
    if (reference_json.empty()) {
      reference_json = curves;
    } else if (curves != reference_json) {
      std::cerr << "error: curves differ between configurations — "
                   "determinism contract broken\n";
      return 1;
    }

    if (!quiet) {
      std::printf("threads=%-3zu %7zu trials  %8.1f trials/s  "
                  "speedup %5.2fx  (%.3fs, %zu rounds)\n",
                  threads, total_trials, tps, speedup,
                  result.elapsed_seconds, result.rounds_completed);
    }
    if (!first) json << ",\n";
    json << "  {\"name\": \"threads" << threads
         << "\", \"threads\": " << threads
         << ", \"trials\": " << total_trials
         << ", \"trials_per_second\": " << tps
         << ", \"speedup\": " << speedup << "}";
    first = false;
  }
  json << "\n ]\n}\n";

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
