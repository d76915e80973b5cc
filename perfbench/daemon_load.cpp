// The daemon workload: one net::Server (in this process, on its own
// threads) with a state_dir, one executor and a small pool, driven over
// loopback TCP by three closed-loop net::LineClient connections:
//
//  stream   `waveform` requests for wlan_80211a@24, drm@B and adsl with
//           seeded burst counts; every sample is compared with a local
//           core::Transmitter.
//  jobs     fresh (never cached) small campaign decks, kJobsOutstanding
//           at a time so the executor never idles: submit, poll
//           `status` until done, fetch `result`; the curves are checked
//           against an in-process sim::Campaign after the window.
//  control  per cycle a cached resubmit (must report cached), `status`,
//           `result` and `ping`.
//
// The job and control connections run at the pace of the repository's
// own client: `ofdm_client submit --wait` polls `status` every 100 ms
// (tools/ofdm_client.cpp), and a control cycle is that command on a
// deck the server already holds, plus a ping, once per poll interval.
// The stream connection sends its next request as soon as the previous
// one is answered, because waveform_msps is a throughput.
//
// The server keeps at most kTrackedJobs job records, so finished decks
// fall out of the bookkeeping map and resubmits are answered from the
// result cache. Only an admitted submit prunes that map; the job
// connection's submits are therefore serialised with the control
// connection's resubmit+status pair, which would otherwise race the
// prune and see unknown_job. A fresh job can still be pruned after it
// finished and before its next poll; its status then reads unknown_job
// and the `result` op, which falls back to the result cache, decides.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "dsp/fft.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

namespace {

using namespace ofdm;

constexpr int kSetupRepeats = 15;
constexpr std::size_t kCachedDecks = 3;
constexpr std::size_t kTrackedJobs = kCachedDecks;
constexpr std::size_t kJobTrials = 32;
constexpr std::size_t kJobPoints = 2;
constexpr std::size_t kProbedJobDecks = 16;
/// Fresh jobs the job connection keeps submitted: with a job running
/// and two queued, the executor has work for longer than one poll
/// interval, so the time between completions is the executor's.
constexpr std::size_t kJobsOutstanding = 3;
/// `status` poll interval of `ofdm_client submit --wait`; also the
/// period of the control connection's cycles.
constexpr auto kPollInterval = std::chrono::milliseconds(100);
constexpr double kJobTimeoutS = 30.0;

// Job-deck seed salts: fresh jobs, cached decks and set-up warm jobs
// never share a deck.
constexpr std::uint64_t kFreshSalt = 0x10000;
constexpr std::uint64_t kCachedSalt = 0x20000;
constexpr std::uint64_t kWarmSalt = 0x30000;

std::string job_deck(std::uint64_t seed, std::uint64_t salt) {
  std::ostringstream d;
  d << "name=perfbench_job\n"
       "standard=wlan_80211a@12\n"
       "channel=awgn\n"
       "rx=coded\n"
       "payload_bits=1024\n"
       "snr_db=4,8\n"
    << "trials.min=" << kJobTrials << "\ntrials.max=" << kJobTrials << "\n"
    << "trials.batch=4\n"
       "stop.rel_ci=1e-12\n"
    << "seed=" << derive_seed(seed, salt) << "\n";
  return d.str();
}

/// One kind of waveform request. A request for n bursts streams the
/// first n bursts of `expected` (burst b's payload depends only on the
/// request seed and b).
struct StreamKind {
  std::string standard;
  std::uint64_t seed = 1;
  cvec expected;  ///< kMaxBursts bursts, float32-rounded as on the wire
  std::size_t burst_samples = 0;
  double local_modulate_s = 0.0;  ///< Transmitter::modulate per burst
};

constexpr std::size_t kMaxBursts = 4;

/// A sample value as carried on the wire (float32). The volatile store
/// forces the rounding: GCC 12 at -O2 may otherwise keep the double.
double to_wire(double v) {
  volatile float f = static_cast<float>(v);
  return f;
}

/// Burst count of the i-th stream request: drawn per request, so every
/// seed sees the same mix of request sizes over a window.
std::size_t request_bursts(std::uint64_t seed, std::size_t i) {
  return 1 + derive_seed(seed, 0x40000 + i) % kMaxBursts;
}

constexpr std::size_t kStreamKinds = 3;

std::vector<StreamKind> stream_kinds(std::uint64_t seed) {
  const char* standards[kStreamKinds] = {"wlan_80211a@24", "drm@B", "adsl"};
  std::vector<StreamKind> kinds;
  for (std::size_t i = 0; i < kStreamKinds; ++i) {
    StreamKind k;
    k.standard = standards[i];
    k.seed = derive_seed(seed, 20 + i) % (1ull << 40);  // exact as a JSON double
    // The server's recipe (Server::handle_waveform).
    core::Transmitter tx(sim::parse_standard_token(k.standard).params);
    const std::size_t pb = tx.recommended_payload_bits();
    std::vector<bitvec> payloads;
    for (std::size_t b = 0; b < kMaxBursts; ++b) {
      payloads.push_back(Rng::substream(k.seed, 0, b).bits(pb));
    }
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      cvec all;
      const auto t0 = Clock::now();
      for (const bitvec& p : payloads) {
        const auto burst = tx.modulate(p);
        all.insert(all.end(), burst.samples.begin(), burst.samples.end());
      }
      times.push_back(seconds_between(t0, Clock::now()) / kMaxBursts);
      if (rep == 0) {
        for (const cplx& x : all) {
          k.expected.push_back({to_wire(x.real()), to_wire(x.imag())});
        }
      }
    }
    k.burst_samples = k.expected.size() / kMaxBursts;
    k.local_modulate_s = median(times);
    kinds.push_back(std::move(k));
  }
  return kinds;
}

/// True when `got` is exactly the first `bursts` bursts of `kind`.
bool stream_matches(const cvec& got, const StreamKind& kind,
                    std::size_t bursts) {
  if (got.size() != bursts * kind.burst_samples) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].real() != kind.expected[i].real() ||
        got[i].imag() != kind.expected[i].imag()) {
      return false;
    }
  }
  return true;
}

net::Json waveform_request(const StreamKind& kind, std::size_t bursts) {
  net::Json req = net::Json::object();
  req.set("op", "waveform")
      .set("standard", kind.standard)
      .set("bursts", bursts)
      .set("seed", static_cast<double>(kind.seed));
  return req;
}

net::Json op(const char* name) {
  net::Json j = net::Json::object();
  j.set("op", name);
  return j;
}

bool reply_ok(const net::Json& r) { return r.bool_or("ok", false); }

/// Client-side spans of the three connections, kept in memory and
/// handed to obs::Tracer only after the window. Tracing during the
/// window would also capture the server's per-trial rf block spans,
/// whose names live in blocks that are gone before the trace is
/// written.
class SpanLog {
 public:
  void add(const char* name, Clock::time_point t0, Clock::time_point t1) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back({name, t0, t1});
  }

  /// Record every span with obs::Tracer and write the Chrome trace.
  void write(const std::string& label) {
    const auto ns = [](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              t.time_since_epoch())
              .count());
    };
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.enable(kTraceRing);
    std::lock_guard<std::mutex> lk(m_);
    for (const Span& s : spans_) {
      tracer.record(s.name, ns(s.t0), ns(s.t1) - ns(s.t0));
    }
    tracer.disable();
    write_trace(label);
  }

 private:
  struct Span {
    const char* name;  ///< string literal
    Clock::time_point t0, t1;
  };
  std::mutex m_;
  std::vector<Span> spans_;
};

/// A fresh job the job connection submitted and has not fetched yet.
struct PendingJob {
  std::string deck;
  std::string id;
  Clock::time_point submitted;
  Clock::time_point running{};  ///< first poll that saw it running
  Clock::time_point done{};     ///< first poll that saw it finished
};

struct JobRun {
  std::string deck;
  std::string id;
  std::string curves;
  Clock::time_point done;  ///< first poll that saw it finished
  double queue_s = 0.0;    ///< submit until first `running` seen
  double done_s = 0.0;     ///< submit until `done` seen
};

/// Submit a fresh deck and add it to `pending`. The submit runs under
/// `prune_guard` (see the file comment).
bool submit_fresh(net::LineClient& c, const std::string& deck,
                  std::mutex& prune_guard, SpanLog& spans,
                  std::vector<PendingJob>& pending, std::string& why) {
  net::Json submit = op("submit");
  submit.set("deck", deck);
  net::Json reply;
  Clock::time_point t0;
  {
    std::lock_guard<std::mutex> lk(prune_guard);
    t0 = Clock::now();
    reply = c.request(submit);
  }
  spans.add("net.submit", t0, Clock::now());
  if (!reply_ok(reply) || reply.str_or("state", "") != "queued" ||
      reply.find("cached") != nullptr) {
    why = "fresh submit not admitted: " + reply.dump();
    return false;
  }
  pending.push_back({deck, reply.str_or("id", ""), t0});
  return true;
}

/// One poll round: `status` of every pending job, then `result` of the
/// finished ones, which move from `pending` to `finished`. Returns
/// false with `why` on a failed or timed-out job or a refused op.
bool poll_jobs(net::LineClient& c, SpanLog& spans,
               std::vector<PendingJob>& pending,
               std::vector<JobRun>& finished, std::string& why) {
  for (PendingJob& p : pending) {
    net::Json status = op("status");
    status.set("id", p.id);
    const auto ts = Clock::now();
    const net::Json st = c.request(status);
    const auto te = Clock::now();
    spans.add("net.status", ts, te);
    const std::string state = st.str_or("state", "");
    const bool pruned = st.str_or("error", "") == net::kErrUnknownJob;
    if (state == "done" || pruned) {
      p.done = te;
    } else if (!reply_ok(st) || (state != "queued" && state != "running")) {
      why = "status of job " + p.id + ": " + st.dump();
      return false;
    } else if (seconds_between(p.submitted, te) > kJobTimeoutS) {
      why = "job " + p.id + " timed out";
      return false;
    }
    if (state == "running" && p.running == Clock::time_point{}) {
      p.running = te;
    }
  }
  for (auto it = pending.begin(); it != pending.end();) {
    if (it->done == Clock::time_point{}) {
      ++it;
      continue;
    }
    net::Json result = op("result");
    result.set("id", it->id);
    const auto tr = Clock::now();
    const net::Json res = c.request(result);
    spans.add("net.result", tr, Clock::now());
    if (!reply_ok(res) || res.str_or("state", "") != "done") {
      why = "result of job " + it->id + ": " + res.dump();
      return false;
    }
    const Clock::time_point running =
        it->running == Clock::time_point{} ? it->done : it->running;
    finished.push_back({it->deck, it->id, res.str_or("curves", ""), it->done,
                        seconds_between(it->submitted, running),
                        seconds_between(it->submitted, it->done)});
    it = pending.erase(it);
  }
  return true;
}

/// Poll every kPollInterval until no job is pending.
bool wait_jobs(net::LineClient& c, SpanLog& spans,
               std::vector<PendingJob>& pending,
               std::vector<JobRun>& finished, std::string& why) {
  while (!pending.empty()) {
    std::this_thread::sleep_for(kPollInterval);
    if (!poll_jobs(c, spans, pending, finished, why)) return false;
  }
  return true;
}

struct CachedDeck {
  std::string deck;
  std::string id;
  std::string curves;
};

/// A started server with its three connected clients.
struct Daemon {
  std::string state_dir;
  std::unique_ptr<net::Server> server;
  net::LineClient stream, jobs, control;
  std::vector<CachedDeck> cached;
  std::mutex prune_guard;

  ~Daemon() {
    stream.close();
    jobs.close();
    control.close();
    if (server) server->stop(false);
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }
};

/// Start the server, connect, and warm up: one single-burst request of
/// every waveform kind, each the first request of one connection, and a
/// ping. This is what set-up time measures; the FFT plan cache is
/// process-wide, so it is emptied first and every set-up pays for
/// filling it. A fresh TCP connection acknowledges at once, so these
/// requests never wait out the delayed-ACK timer as the window's
/// streamed requests can (the server writes each line separately,
/// without TCP_NODELAY); that wait would make set-up time bimodal.
std::unique_ptr<Daemon> start_daemon(int k,
                                     const std::vector<StreamKind>& kinds) {
  auto d = std::make_unique<Daemon>();
  d->state_dir = artefact_dir() + "/daemon-" + std::to_string(::getpid()) +
                 "-" + std::to_string(k);
  std::filesystem::remove_all(d->state_dir);
  std::filesystem::create_directories(d->state_dir);
  dsp::fft_plan_cache_clear();
  net::ServerConfig cfg;
  cfg.jobs.executors = 1;
  cfg.jobs.pool_threads = 1;
  cfg.jobs.state_dir = d->state_dir;
  cfg.jobs.max_tracked_jobs = kTrackedJobs;
  d->server = std::make_unique<net::Server>(cfg);
  d->server->start();
  const std::uint16_t port = d->server->port();
  d->stream.connect("127.0.0.1", port);
  d->jobs.connect("127.0.0.1", port);
  d->control.connect("127.0.0.1", port);

  net::LineClient* first[] = {&d->stream, &d->jobs, &d->control};
  static_assert(std::size(first) == kStreamKinds);
  for (std::size_t i = 0; i < kStreamKinds; ++i) {
    const StreamKind& kind = kinds[i];
    cvec samples;
    const net::Json r = first[i]->waveform(waveform_request(kind, 1), samples);
    if (!reply_ok(r) || !stream_matches(samples, kind, 1)) {
      throw std::runtime_error("warm-up waveform " + kind.standard +
                               " failed: " + r.dump());
    }
  }
  if (!reply_ok(d->control.request(op("ping")))) {
    throw std::runtime_error("warm-up ping failed");
  }
  return d;
}

/// Compute the cached decks once, then run a fresh job whose admission
/// prunes their records, so later resubmits are answered from the
/// result cache. Not part of set-up time: it is job computation, which
/// the window measures.
void fill_result_cache(Daemon& d, const Args& args) {
  SpanLog spans;  // not written
  std::vector<PendingJob> pending;
  std::vector<JobRun> finished;
  std::string why;
  for (std::size_t j = 0; j < kCachedDecks; ++j) {
    if (!submit_fresh(d.jobs, job_deck(args.seed, kCachedSalt + j),
                      d.prune_guard, spans, pending, why)) {
      throw std::runtime_error("warm-up job: " + why);
    }
  }
  if (!wait_jobs(d.jobs, spans, pending, finished, why)) {
    throw std::runtime_error("warm-up job: " + why);
  }
  for (const JobRun& jr : finished) {
    d.cached.push_back({jr.deck, jr.id, jr.curves});
  }
  if (!submit_fresh(d.jobs, job_deck(args.seed, kWarmSalt), d.prune_guard,
                    spans, pending, why) ||
      !wait_jobs(d.jobs, spans, pending, finished, why)) {
    throw std::runtime_error("warm-up job: " + why);
  }
}

/// Per-connection records of the timed window.
struct Window {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex m;  // guards `errors`
  std::vector<std::string> errors;
  SpanLog spans;

  // stream connection
  std::vector<double> waveform_ms, cycle_msps;
  double stream_request_s = 0.0, stream_local_s = 0.0;
  // job connection
  std::vector<std::string> job_decks, job_curves;
  std::vector<double> job_done_s, job_queue_s;
  std::vector<Clock::time_point> window_done;  ///< completions seen in time
  std::size_t status_polls = 0;
  // control connection
  std::vector<double> ping_us, status_ms, result_ms, submit_cached_ms,
      request_ms;

  void error(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lk(m);
    if (errors.size() < 8) errors.push_back(what);
  }
};

void stream_loop(net::LineClient& c, const std::vector<StreamKind>& kinds,
                 std::uint64_t seed, Clock::time_point deadline, Window& w) {
  cvec samples;
  double cycle_samples = 0.0, cycle_s = 0.0;
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const StreamKind& kind = kinds[i % kinds.size()];
    const std::size_t bursts = request_bursts(seed, i);
    samples.clear();
    w.attempted.fetch_add(1);
    const auto t0 = Clock::now();
    const net::Json r = c.waveform(waveform_request(kind, bursts), samples);
    const auto t1 = Clock::now();
    w.spans.add("net.waveform", t0, t1);
    if (!reply_ok(r) || !stream_matches(samples, kind, bursts)) {
      w.error("waveform " + kind.standard + ": " + r.dump());
      continue;
    }
    const double s = seconds_between(t0, t1);
    w.waveform_ms.push_back(s * 1e3);
    w.stream_request_s += s;
    w.stream_local_s += kind.local_modulate_s * static_cast<double>(bursts);
    cycle_samples += static_cast<double>(samples.size());
    cycle_s += s;
    if (i % kinds.size() == kinds.size() - 1) {
      w.cycle_msps.push_back(cycle_samples / cycle_s / 1e6);
      cycle_samples = cycle_s = 0.0;
    }
  }
}

/// Keeps kJobsOutstanding fresh jobs submitted until the deadline,
/// then waits for the last ones, so every submitted job is checked and
/// the server's trial counters cover exactly the finished jobs.
void job_loop(net::LineClient& c, std::mutex& prune_guard,
              std::uint64_t seed, Clock::time_point deadline, Window& w) {
  std::vector<PendingJob> pending;
  std::vector<JobRun> finished;
  std::string why;
  std::uint64_t k = 0;
  const auto submit_next = [&] {
    w.attempted.fetch_add(1);
    return submit_fresh(c, job_deck(seed, kFreshSalt + k++), prune_guard,
                        w.spans, pending, why);
  };
  for (std::size_t i = 0; i < kJobsOutstanding; ++i) {
    if (!submit_next()) return w.error(why);
  }
  while (!pending.empty()) {
    std::this_thread::sleep_for(kPollInterval);
    w.status_polls += pending.size();
    finished.clear();
    if (!poll_jobs(c, w.spans, pending, finished, why)) return w.error(why);
    for (const JobRun& jr : finished) {
      w.job_decks.push_back(jr.deck);
      w.job_curves.push_back(jr.curves);
      w.job_done_s.push_back(jr.done_s);
      w.job_queue_s.push_back(jr.queue_s);
      if (jr.done < deadline) {
        w.window_done.push_back(jr.done);
        if (!submit_next()) return w.error(why);
      }
    }
  }
}

void control_loop(net::LineClient& c, const std::vector<CachedDeck>& cached,
                  std::mutex& prune_guard, Clock::time_point deadline,
                  Window& w) {
  // One control op: counted, timed into `into` (scaled from seconds)
  // and into the connection-wide request latencies.
  const auto timed = [&](const char* name, const net::Json& req,
                         std::vector<double>& into, double scale) {
    w.attempted.fetch_add(1);
    const auto t0 = Clock::now();
    net::Json r = c.request(req);
    const auto t1 = Clock::now();
    w.spans.add(name, t0, t1);
    const double s = seconds_between(t0, t1);
    into.push_back(s * scale);
    w.request_ms.push_back(s * 1e3);
    return r;
  };
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const CachedDeck& x = cached[i % cached.size()];
    net::Json submit = op("submit");
    submit.set("deck", x.deck);
    net::Json status = op("status");
    status.set("id", x.id);
    net::Json sub, st;
    {
      std::lock_guard<std::mutex> lk(prune_guard);
      sub = timed("net.submit_cached", submit, w.submit_cached_ms, 1e3);
      st = timed("net.status", status, w.status_ms, 1e3);
    }
    if (!reply_ok(sub) || !sub.bool_or("cached", false) ||
        sub.str_or("state", "") != "done") {
      w.error("cached resubmit: " + sub.dump());
    }
    if (!reply_ok(st) || st.str_or("state", "") != "done") {
      w.error("status: " + st.dump());
    }
    net::Json result = op("result");
    result.set("id", x.id);
    const net::Json res = timed("net.result", result, w.result_ms, 1e3);
    if (!reply_ok(res) || res.str_or("curves", "") != x.curves) {
      w.error("result of cached deck: " + res.dump().substr(0, 200));
    }
    const net::Json pong = timed("net.ping", op("ping"), w.ping_us, 1e6);
    if (!reply_ok(pong)) w.error("ping: " + pong.dump());
    std::this_thread::sleep_for(kPollInterval);
  }
}

/// The daemon's per-layer figures; all zero on workloads without it.
struct DaemonFigures {
  double waveform_p50_ms = 0, waveform_p99_ms = 0, jobs_per_s = 0,
         job_p50_s = 0, request_p50_ms = 0, request_p99_ms = 0,
         ping_us = 0, status_ms = 0, result_ms = 0, submit_cached_ms = 0,
         job_queue_s = 0, job_run_s = 0, waveform_core_share = 0,
         cache_hit_ratio = 0, trials_executed = 0, protocol_errors = 0;
};

void put_daemon_metrics(const DaemonFigures& f, Outcome& out) {
  out.put("waveform_p50_ms", f.waveform_p50_ms, "ms");
  out.put("waveform_p99_ms", f.waveform_p99_ms, "ms");
  out.put("jobs_per_s", f.jobs_per_s, "1/s");
  out.put("job_p50_s", f.job_p50_s, "s");
  out.put("request_p50_ms", f.request_p50_ms, "ms");
  out.put("request_p99_ms", f.request_p99_ms, "ms");
  out.put("net.ping_us", f.ping_us, "us");
  out.put("net.status_ms", f.status_ms, "ms");
  out.put("net.result_ms", f.result_ms, "ms");
  out.put("net.submit_cached_ms", f.submit_cached_ms, "ms");
  out.put("net.job_queue_s", f.job_queue_s, "s");
  out.put("net.job_run_s", f.job_run_s, "s");
  out.put("net.waveform_core_share", f.waveform_core_share, "ratio");
  out.put("net.cache_hit_ratio", f.cache_hit_ratio, "ratio");
  out.put("net.trials_executed", f.trials_executed, "count");
  out.put("net.protocol_errors", f.protocol_errors, "count");
}

}  // namespace

void put_absent_daemon_metrics(Outcome& out) {
  put_daemon_metrics(DaemonFigures{}, out);
}

Outcome run_daemon_mix(const Args& args) {
  Outcome out;
  const std::vector<StreamKind> kinds = stream_kinds(args.seed);

  std::vector<double> setup_s;
  std::unique_ptr<Daemon> d;
  for (int k = 0; k < kSetupRepeats; ++k) {
    d.reset();  // the previous instance stops outside the timed part
    const auto t0 = Clock::now();
    d = start_daemon(k, kinds);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  fill_result_cache(*d, args);

  const net::Json before = d->control.request(op("stats"));
  Window w;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  {
    // A connection that throws (socket error, timeout) ends its loop
    // and counts one failed operation.
    const auto guarded = [&w](auto body) {
      return [&w, body] {
        try {
          body();
        } catch (const std::exception& e) {
          w.error(std::string("connection lost: ") + e.what());
        }
      };
    };
    std::jthread stream(guarded([&] {
      stream_loop(d->stream, kinds, args.seed, deadline, w);
    }));
    std::jthread jobs(guarded([&] {
      job_loop(d->jobs, d->prune_guard, args.seed, deadline, w);
    }));
    std::jthread control(guarded([&] {
      control_loop(d->control, d->cached, d->prune_guard, deadline, w);
    }));
  }
  if (args.trace) w.spans.write("daemon_mix-net");
  const net::Json after = d->control.request(op("stats"));
  d.reset();  // stop the server before the in-process checks

  out.attempted = w.attempted.load();
  out.failed = w.failed.load();
  for (const std::string& e : w.errors) out.fail(e, 0);
  const auto delta = [&](const char* key) {
    return after.num_or(key, 0.0) - before.num_or(key, 0.0);
  };
  const double jobs_done = static_cast<double>(w.job_decks.size());
  const double trials_per_job = static_cast<double>(kJobTrials * kJobPoints);
  if (delta("trials_executed") != jobs_done * trials_per_job ||
      delta("jobs_completed") != jobs_done) {
    out.fail("stats: trials_executed grew by " +
                 std::to_string(delta("trials_executed")) + " for " +
                 std::to_string(w.job_decks.size()) + " uncached jobs",
             1);
  }
  if (delta("protocol_errors") != 0.0) {
    out.fail("stats: protocol_errors grew", 1);
  }
  if (w.job_decks.empty() || w.cycle_msps.empty() || w.ping_us.empty()) {
    out.fail("a connection completed no operation", 1);
  }
  // Executor time per job: the job connection keeps the executor busy,
  // so completions are one job run apart. Each completion is seen up to
  // one poll interval late, which over the window is well under 1%.
  double job_run_s = 0.0;
  if (w.window_done.size() >= 2) {
    job_run_s = seconds_between(w.window_done.front(), w.window_done.back()) /
                static_cast<double>(w.window_done.size() - 1);
  } else {
    out.fail("fewer than two jobs finished in the window", 1);
  }

  // Job curves against in-process campaigns of the same decks; in a
  // traced run the first decks also get the replay probe.
  ProbeTotals acc;
  for (std::size_t i = 0; i < w.job_decks.size(); ++i) {
    const sim::ScenarioDeck deck = sim::parse_deck(w.job_decks[i]);
    std::string curves;
    if (args.trace && i < kProbedJobDecks) {
      std::string why;
      if (!probe_deck(deck, acc, why)) {
        out.fail(why, 1);
        continue;
      }
      curves = acc.curves;
    } else {
      sim::Campaign campaign(deck);
      sim::RunOptions opts;
      opts.threads = many_workers();
      curves = sim::curves_json(deck, campaign.run(opts));
    }
    if (curves != w.job_curves[i]) {
      out.fail("served curves of job " + std::to_string(i) +
                   " differ from an in-process campaign",
               1);
    }
  }

  // Job connection: one submit and one result per job plus its polls.
  const std::size_t status_ops = w.status_polls + w.status_ms.size();
  const std::size_t requests = w.waveform_ms.size() + 2 * w.job_decks.size() +
                               w.status_polls + w.request_ms.size();
  std::cerr << "perfbench: daemon_mix: " << w.waveform_ms.size()
            << " waveform requests, " << w.job_decks.size() << " jobs, "
            << w.request_ms.size() << " control ops; " << status_ops
            << " of " << requests << " requests are status polls\n";
  if (!args.trace) {
    out.put("trials_per_s", job_run_s > 0.0 ? trials_per_job / job_run_s : 0.0,
            "1/s");
    out.put("waveform_msps", median(w.cycle_msps), "Msps");
    out.put("setup_s", median(setup_s), "s");
    return out;
  }

  write_trace("daemon_mix");
  put_probe_metrics(acc, 1, out);
  DaemonFigures f;
  f.waveform_p50_ms = median(w.waveform_ms);
  f.waveform_p99_ms = tail_quantile(w.waveform_ms);
  f.jobs_per_s = job_run_s > 0.0 ? 1.0 / job_run_s : 0.0;
  f.job_p50_s = median(w.job_done_s);
  f.request_p50_ms = median(w.request_ms);
  f.request_p99_ms = tail_quantile(w.request_ms);
  f.ping_us = median(w.ping_us);
  f.status_ms = median(w.status_ms);
  f.result_ms = median(w.result_ms);
  f.submit_cached_ms = median(w.submit_cached_ms);
  f.job_queue_s = median(w.job_queue_s);
  f.job_run_s = job_run_s;
  f.waveform_core_share = w.stream_local_s / w.stream_request_s;
  const double hits = delta("cache_hits");
  f.cache_hit_ratio = hits / std::max(1.0, hits + delta("cache_misses"));
  f.trials_executed = delta("trials_executed") / std::max(1.0, jobs_done);
  f.protocol_errors = delta("protocol_errors");
  put_daemon_metrics(f, out);
  return out;
}

}  // namespace perfbench

