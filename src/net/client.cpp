#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/protocol.hpp"

namespace ofdm::net {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// A stream counter of an "iq" event, range-checked like every integer
/// the server reads (in_range) before the cast.
std::size_t event_count(const Json& event, const char* key) {
  const Json* v = event.find(key);
  if (v == nullptr || !v->is_number() ||
      !in_range(v->as_number(), 0.0, kMaxExactDouble)) {
    throw NetError(std::string("iq event: '") + key +
                   "' missing or out of range");
  }
  return static_cast<std::size_t>(v->as_number());
}

}  // namespace

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      head_(other.head_),
      scanned_(other.scanned_) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    head_ = other.head_;
    scanned_ = other.scanned_;
    other.fd_ = -1;
  }
  return *this;
}

void LineClient::connect(const std::string& host, std::uint16_t port,
                         double timeout_s) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError("socket(): " + std::string(std::strerror(errno)));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("bad address '" + host + "'");
  }

  // Non-blocking connect so refusal vs. timeout is distinguishable.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw NetError("connect(" + host + ":" + std::to_string(port) +
                   "): " + err);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000.0));
    int soerr = 0;
    socklen_t len = sizeof soerr;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (pr <= 0 || soerr != 0) {
      ::close(fd);
      throw NetError("connect(" + host + ":" + std::to_string(port) + "): " +
                     (pr <= 0 ? "timeout" : std::strerror(soerr)));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  // Requests are written whole: send each at once rather than hold a
  // short segment back for the server's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  head_ = scanned_ = 0;
}

void LineClient::send(const Json& req) { send_text(req.dump() + "\n"); }

void LineClient::send_text(const std::string& bytes) {
  if (fd_ < 0) throw NetError("send on a closed client");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError("send(): " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

Json LineClient::recv_line(double timeout_s) {
  if (fd_ < 0) throw NetError("recv on a closed client");
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<long long>(timeout_s * 1000.0));
  for (;;) {
    // Only the bytes received since the last scan can hold the newline.
    const char* base = buffer_.data();
    const void* nl =
        std::memchr(base + scanned_, '\n', buffer_.size() - scanned_);
    if (nl != nullptr) {
      const char* end = static_cast<const char*>(nl);
      std::string_view line(base + head_,
                            static_cast<std::size_t>(end - base) - head_);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      head_ = scanned_ = static_cast<std::size_t>(end - base) + 1;
      return json_parse(line);
    }
    // Drop the returned lines before the buffer grows again.
    buffer_.erase(0, head_);
    scanned_ = buffer_.size();
    head_ = 0;

    const int wait = remaining_ms(deadline);
    if (wait == 0) throw NetError("recv timeout after " +
                                  std::to_string(timeout_s) + "s");
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n == 0) throw NetError("server closed the connection");
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      throw NetError("recv(): " + std::string(std::strerror(errno)));
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait) < 0 && errno != EINTR) {
      throw NetError("poll(): " + std::string(std::strerror(errno)));
    }
  }
}

Json LineClient::request(const Json& req, double timeout_s) {
  send(req);
  return recv_line(timeout_s);
}

Json LineClient::waveform(const Json& req, cvec& samples, double timeout_s) {
  send(req);
  std::size_t expect_burst = 0, expect_seq = 0;
  for (;;) {
    Json line = recv_line(timeout_s);
    const Json* ev = line.find("ev");
    if (ev == nullptr) return line;  // terminal ok/error reply
    if (ev->as_string() != "iq") {
      throw NetError("unexpected event '" + ev->as_string() +
                     "' in waveform stream");
    }
    const std::size_t burst = event_count(line, "burst");
    const std::size_t seq = event_count(line, "seq");
    const std::size_t n = event_count(line, "n");
    if (burst != expect_burst || seq != expect_seq) {
      if (burst == expect_burst + 1 && seq == 0) {
        expect_burst = burst;
        expect_seq = 0;
      } else {
        throw NetError("waveform stream out of order (burst " +
                       std::to_string(burst) + " seq " + std::to_string(seq) +
                       ")");
      }
    }
    ++expect_seq;
    const Json* data = line.find("data");
    const std::size_t before = samples.size();
    unpack_iq_f32(data != nullptr ? data->as_string() : std::string_view(),
                  samples);
    if (samples.size() - before != n) {
      samples.resize(before);
      throw NetError("iq event length mismatch");
    }
  }
}

}  // namespace ofdm::net
