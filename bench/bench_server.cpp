// Service-daemon throughput: an in-process net::Server on loopback,
// measured through net::LineClient exactly the way a real client sees
// it (plain main): request/reply rate, waveform streaming rate, cached
// campaign submissions, and end-to-end campaign trial throughput
// through the job queue. Emits the JSON consumed by
// bench/regress.py --server and gated against BENCH_server.json
// (machine-relative, like --sim).
//
// Usage:
//   bench_server [--pings N] [--out FILE] [--quiet]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace ofdm;
using Clock = std::chrono::steady_clock;

constexpr const char* kDeck =
    "name=bench_server\n"
    "standard=wlan_80211a@24\n"
    "snr_db=2:4:14\n"
    "payload_bits=512\n"
    "trials.min=96\ntrials.max=96\ntrials.batch=8\n"
    "stop.rel_ci=1e-12\n"
    "seed=17\n";

net::Json op(const char* name) {
  net::Json v = net::Json::object();
  v.set("op", name);
  return v;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t pings = 2000;
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
    if (arg == "--pings") {
      pings = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "usage: bench_server [--pings N] [--out FILE]"
                   " [--quiet]\n";
      return 2;
    }
  }

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t workers = hw > 1 ? hw : 4;

  net::ServerConfig cfg;
  cfg.idle_timeout_s = 0.0;
  cfg.jobs.executors = 1;  // one campaign at a time: fixed workload
  cfg.jobs.pool_threads = workers;
  net::Server server(cfg);
  server.start();

  net::LineClient client;
  client.connect("127.0.0.1", server.port());

  struct Row {
    std::string name;
    std::size_t threads;
    double ops;
  };
  std::vector<Row> rows;

  // --- request/reply round trips ------------------------------------
  for (std::size_t i = 0; i < pings / 10; ++i) {  // warm-up
    (void)client.request(op("ping"));
  }
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < pings; ++i) {
    if (!client.request(op("ping")).bool_or("ok", false)) {
      std::cerr << "error: ping failed\n";
      return 1;
    }
  }
  rows.push_back({"ping", 1, static_cast<double>(pings) / seconds_since(t0)});

  // --- waveform streaming (samples/s over the wire) -----------------
  net::Json wreq = op("waveform");
  wreq.set("standard", "wlan_80211a@24").set("bursts", 16).set("seed", 3);
  cvec warm;
  (void)client.waveform(wreq, warm);  // warm-up
  std::size_t samples = 0;
  t0 = Clock::now();
  for (int rep = 0; rep < 8; ++rep) {
    cvec got;
    const net::Json reply = client.waveform(wreq, got);
    if (!reply.bool_or("ok", false)) {
      std::cerr << "error: waveform failed: " << reply.dump() << "\n";
      return 1;
    }
    samples += got.size();
  }
  rows.push_back({"waveform_stream", 1,
                  static_cast<double>(samples) / seconds_since(t0)});

  // --- end-to-end campaign through the job queue --------------------
  net::Json sreq = op("submit");
  sreq.set("deck", kDeck);
  t0 = Clock::now();
  net::Json reply = client.request(sreq);
  if (!reply.bool_or("ok", false)) {
    std::cerr << "error: submit failed: " << reply.dump() << "\n";
    return 1;
  }
  const std::string id = reply.str_or("id", "");
  for (;;) {
    net::Json st = op("status");
    st.set("id", id);
    reply = client.request(st);
    const std::string state = reply.str_or("state", "?");
    if (state == "done") break;
    if (state != "queued" && state != "running") {
      std::cerr << "error: job ended " << state << "\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double campaign_s = seconds_since(t0);
  const double trials =
      static_cast<double>(server.stats().trials_executed.load());
  rows.push_back({"campaign_e2e", workers, trials / campaign_s});

  // --- cached resubmission (the result-cache fast path) -------------
  const std::size_t cached_iters = 300;
  t0 = Clock::now();
  for (std::size_t i = 0; i < cached_iters; ++i) {
    reply = client.request(sreq);
    if (!reply.bool_or("ok", false) || reply.str_or("state", "") != "done") {
      std::cerr << "error: cached submit failed: " << reply.dump() << "\n";
      return 1;
    }
    net::Json rreq = op("result");
    rreq.set("id", reply.str_or("id", ""));
    if (!client.request(rreq).bool_or("ok", false)) {
      std::cerr << "error: cached result failed\n";
      return 1;
    }
  }
  rows.push_back({"submit_cached", 1,
                  static_cast<double>(cached_iters) / seconds_since(t0)});
  if (server.stats().trials_executed.load() !=
      static_cast<std::uint64_t>(trials)) {
    std::cerr << "error: cached submissions executed trials\n";
    return 1;
  }

  client.close();
  server.stop(false);

  std::ostringstream json;
  json << "{\n \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!quiet) {
      std::printf("%-16s %10.1f ops/s\n", rows[i].name.c_str(), rows[i].ops);
    }
    json << "  {\"name\": \"" << rows[i].name
         << "\", \"threads\": " << rows[i].threads
         << ", \"ops_per_second\": " << rows[i].ops << "}"
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
