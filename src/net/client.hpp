// Blocking line-protocol client for ofdm_serverd: used by the loopback
// test suite, the server bench and the ofdm_client CLI. One connection,
// one request/reply (or request/stream) at a time; every receive is
// bounded by a timeout so a wedged or killed daemon surfaces as a
// NetError instead of a hang.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "net/json.hpp"

namespace ofdm::net {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;

  /// Connect with a timeout; throws NetError on refusal/timeout.
  void connect(const std::string& host, std::uint16_t port,
               double timeout_s = 5.0);
  void close();
  bool connected() const { return fd_ >= 0; }
  /// Raw socket, exposed so tests can cut the connection mid-stream.
  int fd() const { return fd_; }

  /// Send one JSON line (newline appended). Throws NetError on a dead
  /// socket.
  void send(const Json& req);
  /// Send raw bytes verbatim — the malformed-input path for tests.
  void send_text(const std::string& bytes);

  /// Receive the next line and parse it; throws NetError on timeout,
  /// EOF, or a line the server should never emit (invalid JSON).
  Json recv_line(double timeout_s = 10.0);

  /// send() + recv_line(): the plain request/reply round trip.
  Json request(const Json& req, double timeout_s = 10.0);

  /// Waveform round trip: sends `req`, decodes every "iq" event's
  /// samples onto the end of `samples` (validating burst/seq ordering
  /// and each event's `n`), returns the terminal reply
  /// ({"ok":true,...} or {"ok":false,...}).
  Json waveform(const Json& req, cvec& samples, double timeout_s = 30.0);

 private:
  int fd_ = -1;
  std::string buffer_;       ///< received bytes; [head_, end) not returned
  std::size_t head_ = 0;     ///< start of the next line in buffer_
  std::size_t scanned_ = 0;  ///< [head_, scanned_) holds no '\n'
};

}  // namespace ofdm::net
