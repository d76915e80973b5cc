#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/params_io.hpp"
#include "core/transmitter.hpp"
#include "net/protocol.hpp"
#include "sim/deck.hpp"

namespace ofdm::net {

namespace {

constexpr int kPollMs = 100;  // stop-flag / idle-check granularity

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Deadline cap: generous for any real campaign, but small enough that
/// the duration_cast to steady_clock ticks cannot overflow.
constexpr double kMaxDeadlineS = 1e8;  // ~3 years

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  jobs_ = std::make_unique<JobManager>(cfg_.jobs, stats_);
}

Server::~Server() { stop(false); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;

  recovered_ = jobs_->recover();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket(): " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("bad listen address '" + cfg_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw NetError("bind(" + cfg_.host + ":" + std::to_string(cfg_.port) +
                   "): " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw NetError("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop(bool drain) {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    jobs_->shutdown(drain);  // cover the never-started case
    return;
  }
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  reap_finished(/*all=*/true);  // sessions see stopping_ within kPollMs
  jobs_->shutdown(drain);
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    reap_finished(/*all=*/false);

    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, kPollMs);
    if (r <= 0) continue;

    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) continue;
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    // Non-blocking from the first byte: send_raw() must be able to
    // poll for writability and honor stopping_ / send_timeout_s.
    set_nonblocking(fd);
    // Every reply is written whole, so nothing is gained by holding a
    // short last segment back until the peer's delayed ACK (40 ms on
    // Linux) arrives.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    if (stats_.connections_active.load(std::memory_order_relaxed) >=
        cfg_.max_connections) {
      stats_.bump(stats_.connections_rejected);
      send_line(fd, error_reply("", kErrBusy, "connection limit reached"));
      ::close(fd);
      continue;
    }

    const std::uint64_t client = ++next_client_;
    std::lock_guard<std::mutex> lk(sessions_m_);
    sessions_.emplace_back();
    Session* s = &sessions_.back();
    s->fd = fd;
    s->thread = std::thread([this, s, client] { session_loop(s, client); });
  }
}

void Server::reap_finished(bool all) {
  std::lock_guard<std::mutex> lk(sessions_m_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (all || it->finished.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::session_loop(Session* session, std::uint64_t client) {
  const int fd = session->fd;
  stats_.bump(stats_.connections_total);
  stats_.connections_active.fetch_add(1, std::memory_order_relaxed);

  std::string buffer;
  bool discarding = false;  // inside an oversized line, looking for '\n'
  std::size_t errors = 0;
  auto last_activity = Clock::now();
  bool open = true;

  while (open && !stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, kPollMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) {
      if (cfg_.idle_timeout_s > 0.0 &&
          seconds_since(last_activity) > cfg_.idle_timeout_s) {
        Json bye = Json::object();
        bye.set("ev", "bye").set("reason", "idle_timeout");
        send_line(fd, bye);
        stats_.bump(stats_.idle_disconnects);
        break;
      }
      continue;
    }

    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    last_activity = Clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t nl;
    while (open && (nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (discarding) {
        // This newline terminates the oversized line that was already
        // rejected; everything before it is its tail.
        discarding = false;
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > cfg_.max_line_bytes) {
        stats_.bump(stats_.protocol_errors);
        send_line(fd, error_reply("", kErrOversizedFrame,
                                  "line exceeds " +
                                      std::to_string(cfg_.max_line_bytes) +
                                      " bytes"));
        if (++errors >= cfg_.max_protocol_errors) open = false;
        continue;
      }
      open = handle_line(fd, client, line, errors);
    }
    if (discarding) {
      // Still no newline: everything buffered is more tail of the
      // already-rejected line. Drop it, or an endless line with no
      // newline would grow the buffer without bound.
      buffer.clear();
    } else if (open && buffer.size() > cfg_.max_line_bytes) {
      stats_.bump(stats_.protocol_errors);
      send_line(fd, error_reply("", kErrOversizedFrame,
                                "line exceeds " +
                                    std::to_string(cfg_.max_line_bytes) +
                                    " bytes"));
      buffer.clear();
      discarding = true;
      if (++errors >= cfg_.max_protocol_errors) open = false;
    }
  }

  jobs_->release_client(client);
  ::close(fd);
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  session->finished.store(true, std::memory_order_release);
}

bool Server::handle_line(int fd, std::uint64_t client,
                         const std::string& line, std::size_t& errors) {
  Json req;
  try {
    req = json_parse(line);
  } catch (const NetError& e) {
    stats_.bump(stats_.protocol_errors);
    send_line(fd, error_reply("", kErrBadJson, e.what()));
    return ++errors < cfg_.max_protocol_errors;
  }

  const Json* opv = req.find("op");
  if (!req.is_object() || opv == nullptr || !opv->is_string()) {
    stats_.bump(stats_.protocol_errors);
    send_line(fd, error_reply("", kErrBadRequest,
                              "request must be an object with a string 'op'"));
    return ++errors < cfg_.max_protocol_errors;
  }
  const std::string& op = opv->as_string();
  stats_.bump(stats_.requests);

  if (op == "ping") {
    Json reply = ok_reply("ping");
    reply.set("server", "ofdm_serverd");
    return send_line(fd, reply);
  }
  if (op == "stats") return send_line(fd, handle_stats());
  if (op == "waveform") return handle_waveform(fd, req);
  if (op == "submit") return send_line(fd, handle_submit(client, req));
  if (op == "status") return send_line(fd, handle_status(req));
  if (op == "result") return send_line(fd, handle_result(req));
  if (op == "cancel") return send_line(fd, handle_cancel(req));
  if (op == "shutdown") {
    if (!cfg_.allow_remote_shutdown) {
      send_line(fd, error_reply(op, kErrBadRequest,
                                "remote shutdown is disabled"));
      return true;
    }
    const bool drain = req.bool_or("drain", true);
    Json reply = ok_reply("shutdown");
    reply.set("drain", drain);
    // Flags before the reply: a client that has read the ack must be
    // able to observe shutdown_requested() without racing this thread.
    shutdown_drain_.store(drain, std::memory_order_release);
    shutdown_requested_.store(true, std::memory_order_release);
    send_line(fd, reply);
    return false;  // close this connection; owner's loop does the stop
  }

  stats_.bump(stats_.protocol_errors);
  send_line(fd, error_reply(op, kErrUnknownOp, "unknown op '" + op + "'"));
  return ++errors < cfg_.max_protocol_errors;
}

bool Server::handle_waveform(int fd, const Json& req) {
  stats_.bump(stats_.waveform_requests);
  const std::string standard = req.str_or("standard", "");
  const std::string params_text = req.str_or("params", "");
  if (standard.empty() == params_text.empty()) {
    return send_line(fd,
                     error_reply("waveform", kErrBadRequest,
                                 "provide exactly one of 'standard'/'params'"));
  }
  const double bursts_d = req.num_or("bursts", 1.0);
  const double payload_d = req.num_or("payload_bits", 0.0);
  const double seed_d = req.num_or("seed", 1.0);
  const double chunk_d = req.num_or("chunk",
                                    static_cast<double>(cfg_.iq_chunk_samples));
  // Every bound is checked on the double BEFORE any cast: a value like
  // 1e300 (or an overflow-parsed inf) static_cast to an integer is UB.
  if (!in_range(bursts_d, 1.0, static_cast<double>(cfg_.max_bursts)) ||
      !in_range(payload_d, 0.0, 1048576.0) ||
      !in_range(seed_d, 0.0, kMaxExactDouble) ||
      !in_range(chunk_d, 1.0, kMaxExactDouble)) {
    return send_line(
        fd, error_reply("waveform", kErrBadRequest,
                        "bursts/payload_bits/seed/chunk out of range"));
  }
  const auto bursts = static_cast<std::size_t>(bursts_d);
  const auto payload_bits = static_cast<std::size_t>(payload_d);
  const auto seed = static_cast<std::uint64_t>(seed_d);
  const auto chunk = static_cast<std::size_t>(
      std::min(std::max(chunk_d, 64.0), 65536.0));

  core::Transmitter tx;
  try {
    tx.configure(standard.empty()
                     ? core::from_text(params_text)
                     : sim::parse_standard_token(standard).params);
  } catch (const std::exception& e) {
    return send_line(fd, error_reply("waveform", kErrBadDeck, e.what()));
  }
  const std::size_t pb =
      payload_bits != 0 ? payload_bits : tx.recommended_payload_bits();

  // One burst's event lines go out with one send_raw; the terminal
  // reply rides with the last burst.
  std::string wire;
  std::size_t total = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    Rng rng = Rng::substream(seed, /*point=*/0, /*trial=*/b);
    const bitvec payload = rng.bits(pb);
    core::Transmitter::Burst burst;
    try {
      burst = tx.modulate(payload);
    } catch (const std::exception& e) {
      return send_line(fd, error_reply("waveform", kErrInternal, e.what()));
    }
    if (b == 0 && burst.samples.size() * bursts > cfg_.max_waveform_samples) {
      return send_line(
          fd, error_reply("waveform", kErrOversizedFrame,
                          "request would stream " +
                              std::to_string(burst.samples.size() * bursts) +
                              " samples (cap " +
                              std::to_string(cfg_.max_waveform_samples) +
                              ")"));
    }
    std::size_t seq = 0;
    for (std::size_t off = 0; off < burst.samples.size(); off += chunk) {
      const std::size_t n = std::min(chunk, burst.samples.size() - off);
      append_iq_event(wire, b, seq++, {burst.samples.data() + off, n});
    }
    total += burst.samples.size();
    if (b + 1 < bursts) {
      if (!send_raw(fd, wire)) return false;  // peer gone or stalled
      wire.clear();
    }
  }
  stats_.bump(stats_.waveform_samples, total);

  Json done = ok_reply("waveform");
  done.set("bursts", bursts)
      .set("samples", total)
      .set("payload_bits", pb)
      .set("seed", seed);
  wire += done.dump();
  wire += '\n';
  return send_raw(fd, wire);
}

Json Server::handle_submit(std::uint64_t client, const Json& req) {
  const Json* deck = req.find("deck");
  if (deck == nullptr || !deck->is_string()) {
    return error_reply("submit", kErrBadRequest, "missing string 'deck'");
  }
  const double deadline_s = req.num_or("deadline_s", 0.0);
  if (!in_range(deadline_s, 0.0, kMaxDeadlineS)) {
    return error_reply("submit", kErrBadRequest,
                       "deadline_s out of range (0 .. 1e8)");
  }
  const auto r =
      jobs_->submit(deck->as_string(), deadline_s, client, cfg_.client_quota);

  switch (r.admission) {
    case JobManager::Admission::kAccepted: {
      Json reply = ok_reply("submit");
      reply.set("id", r.id).set("state", "queued");
      return reply;
    }
    case JobManager::Admission::kAttached:
    case JobManager::Admission::kCached: {
      JobStatus st;
      Json reply = ok_reply("submit");
      reply.set("id", r.id)
          .set("state",
               jobs_->status(r.id, st) ? job_state_name(st.state) : "queued")
          .set("attached", r.admission == JobManager::Admission::kAttached)
          .set("cached", r.admission == JobManager::Admission::kCached ||
                             (jobs_->status(r.id, st) && st.cached));
      return reply;
    }
    case JobManager::Admission::kQueueFull: {
      Json reply = error_reply("submit", kErrQueueFull, "job queue is full");
      reply.set("retry_after_s", cfg_.retry_after_s);
      return reply;
    }
    case JobManager::Admission::kQuota: {
      Json reply = error_reply("submit", kErrQuotaExceeded,
                               "client active-job quota reached");
      reply.set("retry_after_s", cfg_.retry_after_s);
      return reply;
    }
    case JobManager::Admission::kBadDeck:
      return error_reply("submit", kErrBadDeck, r.error);
    case JobManager::Admission::kShutdown:
      return error_reply("submit", kErrShuttingDown, "server is draining");
  }
  return error_reply("submit", kErrInternal, "unreachable");
}

namespace {

Json status_reply(const char* op, const JobStatus& st) {
  Json reply = ok_reply(op);
  reply.set("id", st.id)
      .set("state", job_state_name(st.state))
      .set("cached", st.cached)
      .set("recovered", st.recovered)
      .set("rounds", st.rounds)
      .set("trials", st.trials)
      .set("points", st.points)
      .set("points_done", st.points_done);
  if (st.state == JobState::kQueued) {
    reply.set("queue_position", st.queue_position);
  }
  if (!st.error.empty()) reply.set("detail", st.error);
  return reply;
}

}  // namespace

Json Server::handle_status(const Json& req) {
  const std::string id = req.str_or("id", "");
  JobStatus st;
  if (id.empty() || !jobs_->status(id, st)) {
    return error_reply("status", kErrUnknownJob, "unknown job '" + id + "'");
  }
  return status_reply("status", st);
}

Json Server::handle_result(const Json& req) {
  const std::string id = req.str_or("id", "");
  const std::string format = req.str_or("format", "json");
  if (format != "json" && format != "csv") {
    return error_reply("result", kErrBadRequest,
                       "format must be 'json' or 'csv'");
  }
  JobManager::ResultOut out;
  if (id.empty() || !jobs_->result(id, out)) {
    return error_reply("result", kErrUnknownJob, "unknown job '" + id + "'");
  }
  if (out.st.state == JobState::kQueued || out.st.state == JobState::kRunning) {
    Json reply = error_reply("result", kErrNotDone,
                             "job is " + std::string(job_state_name(
                                             out.st.state)));
    reply.set("id", id).set("state", job_state_name(out.st.state));
    return reply;
  }
  if (out.st.state != JobState::kDone) {
    Json reply = error_reply("result", kErrJobFailed, out.st.error);
    reply.set("id", id).set("state", job_state_name(out.st.state));
    return reply;
  }
  Json reply = ok_reply("result");
  reply.set("id", id)
      .set("state", "done")
      .set("cached", out.st.cached)
      .set("format", format)
      .set("curves", format == "json" ? out.curves_json : out.curves_csv);
  return reply;
}

Json Server::handle_cancel(const Json& req) {
  const std::string id = req.str_or("id", "");
  if (id.empty() || !jobs_->cancel(id)) {
    return error_reply("cancel", kErrUnknownJob, "unknown job '" + id + "'");
  }
  Json reply = ok_reply("cancel");
  reply.set("id", id);
  return reply;
}

Json Server::handle_stats() {
  const ServerStats& s = stats_;
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Json reply = ok_reply("stats");
  reply.set("connections_total", get(s.connections_total))
      .set("connections_active", get(s.connections_active))
      .set("connections_rejected", get(s.connections_rejected))
      .set("idle_disconnects", get(s.idle_disconnects))
      .set("protocol_errors", get(s.protocol_errors))
      .set("requests", get(s.requests))
      .set("waveform_requests", get(s.waveform_requests))
      .set("waveform_samples", get(s.waveform_samples))
      .set("jobs_submitted", get(s.jobs_submitted))
      .set("jobs_completed", get(s.jobs_completed))
      .set("jobs_failed", get(s.jobs_failed))
      .set("jobs_cancelled", get(s.jobs_cancelled))
      .set("jobs_expired", get(s.jobs_expired))
      .set("jobs_recovered", get(s.jobs_recovered))
      .set("rejected_queue_full", get(s.rejected_queue_full))
      .set("rejected_quota", get(s.rejected_quota))
      .set("rounds_executed", get(s.rounds_executed))
      .set("trials_executed", get(s.trials_executed))
      .set("jobs_queued", jobs_->queued())
      .set("cache_entries", jobs_->cache().entries())
      .set("cache_bytes", jobs_->cache().bytes())
      .set("cache_hits", jobs_->cache().hits())
      .set("cache_misses", jobs_->cache().misses());
  return reply;
}

bool Server::send_line(int fd, const Json& value) {
  return send_raw(fd, value.dump() + "\n");
}

bool Server::send_raw(int fd, const std::string& line) {
  // The socket is non-blocking: poll for writability in kPollMs slices
  // so a peer that stops reading (a stalled waveform stream can be
  // megabytes) cannot pin this session thread. Both the stop flag and
  // the cumulative-stall timeout break the wait — Server::stop() must
  // never hang on one wedged client.
  std::size_t off = 0;
  double stalled_s = 0.0;
  while (off < line.size()) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stalled_s = 0.0;  // peer is reading again
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, kPollMs);
      if (r < 0 && errno != EINTR) return false;
      stalled_s += kPollMs / 1000.0;
      if (cfg_.send_timeout_s > 0.0 && stalled_s >= cfg_.send_timeout_s) {
        return false;  // peer wedged: drop the connection
      }
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace ofdm::net
