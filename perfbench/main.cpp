// Benchmark program for the OFDM link simulator and its daemon.
//
//   perfbench --workload coded_awgn|fading_uncoded|daemon_mix
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Prints diagnostics on stderr and, as the last stdout line, one JSON
// object {"correct","attempted","failed","metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (README.md).
// Normally started through run.py, which builds it first.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Outcome::fail(const std::string& what, std::uint64_t failed_ops) {
  correct = false;
  failed += failed_ops;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_quantile(std::vector<double> v) {
  const double n = static_cast<double>(v.size());
  const double q = n >= 1000.0 ? 0.99 : std::max(0.5, 1.0 - 10.0 / n);
  return quantile(std::move(v), q);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::size_t many_workers() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

std::string artefact_dir() {
  const std::string dir = ".bench_build/perfbench-artefacts";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload coded_awgn|fading_uncoded|"
               "daemon_mix [--seed N] [--seconds S] [--trace 0|1]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      usage();
    }
  }
  if (!(args.seconds > 0.0)) usage();

  Outcome out;
  try {
    if (args.workload == "coded_awgn") {
      out = run_coded_awgn(args);
    } else if (args.workload == "fading_uncoded") {
      out = run_fading_uncoded(args);
    } else if (args.workload == "daemon_mix") {
      out = run_daemon_mix(args);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }

  for (const auto& [name, vu] : out.metrics) {
    if (!std::isfinite(vu.first)) out.fail("metric " + name + " is not finite", 0);
  }

  std::string json = "{\"correct\": ";
  json += out.correct && out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);  // valid JSON
    if (i > 0) json += ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
