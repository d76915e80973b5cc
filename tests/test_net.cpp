// Loopback suite for the ofdm_serverd stack: JSON/base64 wire
// primitives, then a real Server on 127.0.0.1 exercised through
// LineClient — the malformed-input, backpressure, deadline,
// disconnect, drain/recovery and cache paths the daemon's robustness
// story hangs on. Runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/transmitter.hpp"
#include "net/client.hpp"
#include "net/json.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "sim/aggregator.hpp"
#include "sim/campaign.hpp"
#include "sim/deck.hpp"

namespace ofdm::net {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"submit","n":3,"x":-1.5,"flag":true,"nil":null,)"
      R"("arr":[1,2,3],"s":"a\"b\\c\n\u00e9"})";
  const Json v = json_parse(text);
  EXPECT_EQ(v.str_or("op", ""), "submit");
  EXPECT_EQ(v.num_or("n", 0), 3.0);
  EXPECT_EQ(v.num_or("x", 0), -1.5);
  EXPECT_TRUE(v.bool_or("flag", false));
  EXPECT_TRUE(v.find("nil")->is_null());
  EXPECT_EQ(v.find("arr")->as_array().size(), 3u);
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\\c\n\xc3\xa9");
  // dump() of a parsed value re-parses to the same structure
  const Json again = json_parse(v.dump());
  EXPECT_EQ(again.dump(), v.dump());
}

TEST(Json, IntegersDumpWithoutExponent) {
  Json v = Json::object();
  v.set("big", 9007199254740992.0).set("small", 17).set("frac", 0.5);
  const std::string text = v.dump();
  EXPECT_NE(text.find("\"small\":17"), std::string::npos) << text;
  EXPECT_NE(text.find("\"frac\":0.5"), std::string::npos) << text;
}

TEST(Json, MalformedInputsThrow) {
  const char* bad[] = {
      "",           "{",        "}",          "[1,]",      "{\"a\":}",
      "{'a':1}",    "{\"a\" 1}", "tru",        "01",        "1.",
      "\"\\q\"",    "\"\\u12\"", "\"\x01\"",   "{}extra",   "nullx",
      "[1 2]",      "\"unterminated", "-",     "+1",        "{\"a\":1,}",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)json_parse(text), NetError) << text;
  }
}

TEST(Json, StringScanFindsSpecialBytesAtEveryWordOffset) {
  // The string scan skips 8-byte words proven plain before its byte loop;
  // put each kind of special byte at every offset of a word, with plain
  // runs on both sides long enough for whole words.
  const std::string tail(19, 'b');
  for (std::size_t k = 0; k < 16; ++k) {
    SCOPED_TRACE("offset " + std::to_string(k));
    const std::string head(k, 'a');
    // Escaped quote and backslash.
    EXPECT_EQ(json_parse("\"" + head + "\\\"\\\\" + tail + "\"").as_string(),
              head + "\"\\" + tail);
    // A raw quote ends the string.
    const Json arr = json_parse("[\"" + head + "\",\"" + tail + "\"]");
    ASSERT_EQ(arr.as_array().size(), 2u);
    EXPECT_EQ(arr.as_array()[0].as_string(), head);
    EXPECT_EQ(arr.as_array()[1].as_string(), tail);
    // Control bytes are refused; 0x20, 0x7F and bytes >= 0x80 are plain.
    for (const char c : {'\x01', '\x1f', '\0'}) {
      EXPECT_THROW((void)json_parse("\"" + head + c + tail + "\""), NetError);
    }
    const std::string high = head + " \x7f\x80\xa2\xdc\x9f\xc3\xa9\xff" + tail;
    EXPECT_EQ(json_parse("\"" + high + "\"").as_string(), high);
    // An unterminated string fails whichever word it ends in.
    EXPECT_THROW((void)json_parse("\"" + head + tail), NetError);
  }
}

TEST(Json, DepthCapHolds) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW((void)json_parse(deep), NetError);
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += '[';
  for (int i = 0; i < 32; ++i) ok += ']';
  EXPECT_NO_THROW((void)json_parse(ok));
}

// -------------------------------------------------------------- base64

TEST(Base64, RoundTripAndRejection) {
  // RFC 4648 section 10 test vectors pin the alphabet and the padding.
  const std::pair<const char*, const char*> vectors[] = {
      {"", ""},         {"f", "Zg=="},        {"fo", "Zm8="},
      {"foo", "Zm9v"},  {"foob", "Zm9vYg=="}, {"fooba", "Zm9vYmE="},
      {"foobar", "Zm9vYmFy"},
  };
  for (const auto& [plain, coded] : vectors) {
    const bytevec bytes(plain, plain + std::strlen(plain));
    EXPECT_EQ(base64_encode(bytes), coded) << plain;
    EXPECT_EQ(base64_decode(coded), bytes) << coded;
  }
  Rng rng(42);
  for (const std::size_t n : {0, 1, 2, 3, 4, 31, 257}) {
    const bytevec data = rng.bytes(n);
    const std::string b64 = base64_encode(data);
    EXPECT_EQ(base64_decode(b64), data) << n;
  }
  for (const char* bad :
       {"A", "AB=", "A===", "AB*D", "====", "AA=A",
        "AAAAAA*AAAAA",    // invalid byte in a middle group
        "AA==AAAA",        // '=' in a non-final group
        "AAAA\xc3\xa9" "AAAAAA"}) {  // high-bit bytes
    EXPECT_THROW((void)base64_decode(bad), NetError) << bad;
  }
}

TEST(Base64, IqPackRoundTrip) {
  cvec samples;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) samples.push_back(rng.complex_gaussian());
  std::string b64 = "prefix";
  pack_iq_f32(b64, samples);
  ASSERT_EQ(b64.substr(0, 6), "prefix");
  cvec back(1, cplx{5.0, -5.0});  // unpack appends
  unpack_iq_f32(std::string_view(b64).substr(6), back);
  ASSERT_EQ(back.size(), samples.size() + 1);
  EXPECT_EQ(back[0], (cplx{5.0, -5.0}));
  // Exactly the float32-rounded input: the wire contract that streamed
  // samples are compared against bit for bit.
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(back[i + 1].real(),
              static_cast<double>(static_cast<float>(samples[i].real())));
    EXPECT_EQ(back[i + 1].imag(),
              static_cast<double>(static_cast<float>(samples[i].imag())));
  }
  // A refused payload appends nothing: a bad length, then a bad byte
  // beyond the first decoded block.
  EXPECT_THROW(unpack_iq_f32(base64_encode(bytevec(7)), back), NetError);
  std::string corrupt = b64.substr(6);
  corrupt[3000] = '*';
  EXPECT_THROW(unpack_iq_f32(corrupt, back), NetError);
  EXPECT_EQ(back.size(), samples.size() + 1);
}

TEST(Base64, IqEventLineMatchesJsonDump) {
  // The direct encoder must write exactly the bytes of
  // Json{ev,burst,seq,n,data}.dump() + "\n", data being the base64 of
  // the little-endian float32 (re,im) pairs.
  Rng rng(11);
  for (const std::size_t n : {0, 1, 2, 3, 64, 4096}) {
    cvec samples(n);
    for (cplx& x : samples) x = rng.complex_gaussian();
    bytevec raw;
    for (const cplx& x : samples) {
      for (const float f :
           {static_cast<float>(x.real()), static_cast<float>(x.imag())}) {
        std::uint8_t b[sizeof f];
        std::memcpy(b, &f, sizeof f);
        raw.insert(raw.end(), b, b + sizeof f);
      }
    }
    Json ev = Json::object();
    ev.set("ev", "iq").set("burst", 7).set("seq", n).set("n", n).set(
        "data", base64_encode(raw));
    std::string line = "{}\n";  // the encoder appends
    append_iq_event(line, 7, n, samples);
    EXPECT_EQ(line, "{}\n" + ev.dump() + "\n") << n;
  }
}

// ------------------------------------------------------------ loopback

/// A deck small enough to finish in well under a second.
constexpr const char* kQuickDeck =
    "name=net_quick\n"
    "standard=wlan_80211a@12\n"
    "snr_db=6\n"
    "channel=awgn\n"
    "payload_bits=256\n"
    "trials.min=8\n"
    "trials.max=8\n"
    "trials.batch=8\n"
    "seed=5\n";

/// kQuickDeck with a distinct seed => a distinct digest/job id.
std::string quick_deck_seed(int seed) {
  return "name=net_quick\nstandard=wlan_80211a@12\nsnr_db=6\n"
         "channel=awgn\npayload_bits=256\ntrials.min=8\n"
         "trials.max=8\ntrials.batch=8\nseed=" +
         std::to_string(seed) + "\n";
}

/// A deck that grinds long enough to still be running when the test
/// cancels / expires / kills it (but bounded, so an assertion failure
/// can't wedge the suite).
std::string slow_deck(int seed) {
  return "name=net_slow\nstandard=wlan_80211a@12\n"
         "snr_db=0,2,4,6\nchannel=awgn\n"
         "trials.min=256\ntrials.max=4096\ntrials.batch=64\n"
         "seed=" +
         std::to_string(seed) + "\n";
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("ofdm_net_") + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

ServerConfig quick_config() {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.idle_timeout_s = 0.0;
  cfg.jobs.executors = 2;
  cfg.jobs.pool_threads = 2;
  return cfg;
}

LineClient connect_to(const Server& server) {
  LineClient c;
  c.connect("127.0.0.1", server.port());
  return c;
}

Json op(const char* name) {
  Json v = Json::object();
  v.set("op", name);
  return v;
}

std::string wait_terminal(LineClient& client, const std::string& id,
                          double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    Json req = op("status");
    req.set("id", id);
    const Json reply = client.request(req);
    if (!reply.bool_or("ok", false)) return reply.str_or("error", "?");
    const std::string state = reply.str_or("state", "");
    if (state != "queued" && state != "running") return state;
    if (std::chrono::steady_clock::now() > deadline) return "timeout";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// Polls until job `id` has left the queue for an executor.
void wait_running(LineClient& client, const std::string& id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    Json sreq = op("status");
    sreq.set("id", id);
    const std::string state = client.request(sreq).str_or("state", "");
    if (state == "running") return;
    ASSERT_EQ(state, "queued") << "job went terminal before running";
    ASSERT_TRUE(std::chrono::steady_clock::now() < deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST(NetServer, PingStatsAndUnknownOp) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  Json reply = client.request(op("ping"));
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(reply.str_or("server", ""), "ofdm_serverd");

  reply = client.request(op("stats"));
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_GE(reply.num_or("requests", 0), 1.0);

  reply = client.request(op("frobnicate"));
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.str_or("error", ""), kErrUnknownOp);

  server.stop(false);
}

TEST(NetServer, MalformedJsonAndErrorCapClose) {
  ServerConfig cfg = quick_config();
  cfg.max_protocol_errors = 3;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  client.send_text("this is not json\n");
  Json reply = client.recv_line();
  EXPECT_EQ(reply.str_or("error", ""), kErrBadJson);

  client.send_text("[1,2,3]\n");  // valid JSON, not a request object
  reply = client.recv_line();
  EXPECT_EQ(reply.str_or("error", ""), kErrBadRequest);

  client.send_text("{{{\n");  // third strike: server closes after reply
  reply = client.recv_line();
  EXPECT_EQ(reply.str_or("error", ""), kErrBadJson);
  EXPECT_THROW((void)client.recv_line(2.0), NetError);

  // a fresh connection still works — the cap is per connection
  LineClient again = connect_to(server);
  EXPECT_TRUE(again.request(op("ping")).bool_or("ok", false));
  EXPECT_GE(server.stats().protocol_errors.load(), 3u);
  server.stop(false);
}

TEST(NetServer, EscapeHeavyStringsParseInLinearTime) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  // Just under the default 1 MiB line cap, a string of nothing but
  // "\n" escapes: a parser that rescans the rest of the string after
  // each escape spends tens of seconds here.
  std::string escapes;
  for (std::size_t i = 0; i < (std::size_t{1} << 19) - 64; ++i) {
    escapes += "\\n";
  }
  const auto timed = [&](const std::string& line) {
    const auto t0 = std::chrono::steady_clock::now();
    client.send_text(line);
    const Json reply = client.recv_line(10.0);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    EXPECT_LT(s, 1.0) << line.size() << "-byte line";
    return reply;
  };
  EXPECT_TRUE(timed(R"({"op":"ping","x":")" + escapes + "\"}\n")
                  .bool_or("ok", false));
  // The same string with no closing quote is refused just as fast.
  EXPECT_EQ(timed(R"({"op":"ping","x":")" + escapes + "\n")
                .str_or("error", ""),
            kErrBadJson);
  EXPECT_TRUE(client.request(op("ping")).bool_or("ok", false));
  server.stop(false);
}

TEST(NetServer, OversizedFrameRejectedConnectionSurvives) {
  ServerConfig cfg = quick_config();
  cfg.max_line_bytes = 512;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  client.send_text(std::string(2000, 'x') + "\n");
  const Json reply = client.recv_line();
  EXPECT_EQ(reply.str_or("error", ""), kErrOversizedFrame);

  // The oversized line's tail was discarded; the protocol resyncs.
  EXPECT_TRUE(client.request(op("ping")).bool_or("ok", false));
  server.stop(false);
}

TEST(NetServer, EndlessOversizedLineIsDiscardedNotBuffered) {
  ServerConfig cfg = quick_config();
  cfg.max_line_bytes = 512;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  // A "line" that never ends: the server must reject it once and then
  // drop every further chunk instead of buffering the endless tail.
  const std::string junk(4096, 'y');
  client.send_text(junk);
  const Json reply = client.recv_line();
  EXPECT_EQ(reply.str_or("error", ""), kErrOversizedFrame);
  const std::uint64_t errors_after = server.stats().protocol_errors.load();

  for (int i = 0; i < 256; ++i) client.send_text(junk);  // 1 MiB of tail
  client.send_text("\n");  // finally terminate the rejected line
  // The protocol resyncs, and the whole tail counted as ONE error.
  EXPECT_TRUE(client.request(op("ping")).bool_or("ok", false));
  EXPECT_EQ(server.stats().protocol_errors.load(), errors_after);
  server.stop(false);
}

TEST(NetServer, StalledReaderIsDroppedAfterSendTimeout) {
  ServerConfig cfg = quick_config();
  cfg.send_timeout_s = 0.3;
  cfg.max_bursts = 8192;
  cfg.max_waveform_samples = 1u << 26;
  Server server(cfg);
  server.start();
  {
    LineClient client = connect_to(server);
    // Handshake first so the session thread is provably live (and
    // counted) before we go silent — otherwise the wait below could
    // pass vacuously on connections_active == 0.
    ASSERT_TRUE(client.request(op("ping")).bool_or("ok", false));
    ASSERT_EQ(server.stats().connections_active.load(), 1u);
    Json req = op("waveform");
    req.set("standard", "wlan_80211a@12").set("bursts", 8192);
    client.send(req);
    // Read nothing: the stream must fill every buffer in between,
    // stall the server's send, and trip the write timeout.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.stats().connections_active.load() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(server.stats().connections_active.load(), 0u)
        << "stalled connection must be dropped, not waited on forever";
  }
  LineClient probe = connect_to(server);
  EXPECT_TRUE(probe.request(op("ping")).bool_or("ok", false));
  server.stop(false);
}

TEST(NetServer, StalledReaderCannotWedgeStop) {
  ServerConfig cfg = quick_config();  // default (long) send timeout
  cfg.max_bursts = 8192;
  cfg.max_waveform_samples = 1u << 26;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);
  Json req = op("waveform");
  req.set("standard", "wlan_80211a@12").set("bursts", 8192);
  client.send(req);
  // Let the stream stall against our unread socket, then stop: the
  // session thread must notice stopping_ inside its send loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop(false);
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 10.0) << "stop() must not wait on a wedged client";
}

TEST(NetServer, WaveformMatchesLocalTransmitter) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  Json req = op("waveform");
  req.set("standard", "wlan_80211a@12").set("bursts", 2).set("seed", 9)
      .set("chunk", 100);  // force multiple iq events per burst
  cvec streamed;
  const Json reply = client.waveform(req, streamed);
  ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  EXPECT_EQ(reply.num_or("samples", 0), double(streamed.size()));

  // Reference: the same deterministic payload derivation, locally.
  core::Transmitter tx(sim::parse_standard_token("wlan_80211a@12").params);
  const std::size_t pb = tx.recommended_payload_bits();
  EXPECT_EQ(reply.num_or("payload_bits", 0), double(pb));
  cvec expect;
  for (std::uint64_t b = 0; b < 2; ++b) {
    Rng rng = Rng::substream(9, 0, b);
    const auto burst = tx.modulate(rng.bits(pb));
    expect.insert(expect.end(), burst.samples.begin(), burst.samples.end());
  }
  ASSERT_EQ(streamed.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(streamed[i].real(), expect[i].real(), 1e-5);
    EXPECT_NEAR(streamed[i].imag(), expect[i].imag(), 1e-5);
  }
  server.stop(false);
}

TEST(NetServer, WaveformValidation) {
  ServerConfig cfg = quick_config();
  cfg.max_waveform_samples = 2000;  // one wlan burst fits, four don't
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  Json req = op("waveform");
  req.set("standard", "no_such_standard");
  cvec sink;
  EXPECT_EQ(client.waveform(req, sink).str_or("error", ""), kErrBadDeck);

  req = op("waveform");  // neither standard nor params
  EXPECT_EQ(client.waveform(req, sink).str_or("error", ""), kErrBadRequest);

  req = op("waveform");
  req.set("standard", "wlan_80211a@12").set("bursts", 4);
  EXPECT_EQ(client.waveform(req, sink).str_or("error", ""),
            kErrOversizedFrame);
  EXPECT_TRUE(sink.empty()) << "no iq may be streamed before the size check";
  server.stop(false);
}

TEST(NetServer, HugeNumericFieldsAreRejectedNotCast) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);
  cvec sink;

  // Each of these would be UB if static_cast before the range check.
  for (const char* field : {"seed", "chunk", "bursts", "payload_bits"}) {
    Json req = op("waveform");
    req.set("standard", "wlan_80211a@12").set(field, 1e300);
    EXPECT_EQ(client.waveform(req, sink).str_or("error", ""), kErrBadRequest)
        << field;
  }
  Json req = op("submit");
  req.set("deck", kQuickDeck).set("deadline_s", 1e300);
  EXPECT_EQ(client.request(req).str_or("error", ""), kErrBadRequest);
  server.stop(false);
}

/// A scripted stand-in for the daemon on a raw socket: each accepted
/// connection reads one request line, gets the next canned reply, and
/// is held open until the client hangs up.
class FakeServer {
 public:
  explicit FakeServer(std::vector<std::string> replies)
      : replies_(std::move(replies)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd_, 4) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "fake server socket setup failed";
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    thread_.join();
    ::close(fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  void serve() {
    for (const std::string& reply : replies_) {
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) return;
      char buf[4096];
      std::string got;
      while (got.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(c, buf, sizeof buf, 0);
        if (n <= 0) break;
        got.append(buf, static_cast<std::size_t>(n));
      }
      (void)::send(c, reply.data(), reply.size(), MSG_NOSIGNAL);
      while (::recv(c, buf, sizeof buf, 0) > 0) {
      }
      ::close(c);
    }
  }

  std::vector<std::string> replies_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(NetClient, IqEventCountsAreRangeCheckedBeforeTheCast) {
  // Each would be UB if static_cast to size_t unchecked. The stream is
  // otherwise whole, so only the range check can refuse it, and the
  // refusal must name the field.
  const std::string done = R"({"ok":true,"op":"waveform"})" "\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"ev":"iq","burst":0,"seq":0,"data":""})", "'n'"},
      {R"({"ev":"iq","burst":0,"seq":0,"n":-1,"data":""})", "'n'"},
      {R"({"ev":"iq","burst":1e300,"seq":0,"n":0,"data":""})", "'burst'"},
  };
  std::vector<std::string> replies;
  for (const auto& [line, field] : cases) replies.push_back(line + "\n" + done);
  FakeServer fake(replies);
  for (const auto& [line, field] : cases) {
    LineClient client;
    client.connect("127.0.0.1", fake.port());
    Json req = op("waveform");
    req.set("standard", "wlan_80211a@12");
    cvec sink;
    try {
      (void)client.waveform(req, sink, 5.0);
      ADD_FAILURE() << "accepted " << line;
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(field + " missing or out of range"),
                std::string::npos)
          << line << ": " << e.what();
    }
    EXPECT_TRUE(sink.empty()) << line;
  }
}

TEST(NetServer, WaveformRepliesDoNotWaitForDelayedAck) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);
  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  ASSERT_EQ(::getsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &len),
            0);
  EXPECT_EQ(nodelay, 1);

  // Back-to-back requests on one connection: without TCP_NODELAY the
  // last segment of a reply can wait out the peer's 40 ms delayed ACK.
  Json req = op("waveform");
  req.set("standard", "wlan_80211a@24").set("chunk", 64);
  std::vector<double> ms;
  for (int i = 0; i < 10; ++i) {
    cvec samples;
    const auto t0 = std::chrono::steady_clock::now();
    const Json reply = client.waveform(req, samples);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  }
  std::nth_element(ms.begin(), ms.begin() + 5, ms.end());
  EXPECT_LT(ms[5], 20.0) << "median waveform request time (ms)";
  server.stop(false);
}

TEST(NetServer, SubmitRunsAndResultMatchesLocalCampaign) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  Json req = op("submit");
  req.set("deck", kQuickDeck);
  Json reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  const std::string id = reply.str_or("id", "");
  ASSERT_EQ(id.size(), 16u);
  EXPECT_EQ(wait_terminal(client, id), "done");

  req = op("result");
  req.set("id", id);
  reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();

  sim::Campaign reference(sim::parse_deck(kQuickDeck));
  sim::RunOptions opts;
  opts.threads = 2;
  const auto ref = reference.run(opts);
  EXPECT_EQ(reply.str_or("curves", ""),
            sim::curves_json(reference.deck(), ref));
  server.stop(false);
}

TEST(NetServer, SecondIdenticalDeckIsServedFromCacheWithoutTrials) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  Json req = op("submit");
  req.set("deck", kQuickDeck);
  Json reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false));
  const std::string id = reply.str_or("id", "");
  ASSERT_EQ(wait_terminal(client, id), "done");

  Json first_result = op("result");
  first_result.set("id", id);
  const std::string curves =
      client.request(first_result).str_or("curves", "");
  ASSERT_FALSE(curves.empty());

  // Probe counter: remember how much work the engine has done, then
  // resubmit the identical deck.
  const std::uint64_t trials_before = server.stats().trials_executed.load();
  const std::uint64_t hits_before = server.jobs().cache().hits();

  reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  EXPECT_EQ(reply.str_or("state", ""), "done");
  EXPECT_TRUE(reply.bool_or("cached", false) ||
              reply.bool_or("attached", false));

  Json rreq = op("result");
  rreq.set("id", reply.str_or("id", ""));
  const Json rres = client.request(rreq);
  EXPECT_EQ(rres.str_or("curves", ""), curves);

  EXPECT_EQ(server.stats().trials_executed.load(), trials_before)
      << "cached submission must not spawn trials";
  EXPECT_GE(server.jobs().cache().hits(), hits_before);
  server.stop(false);
}

TEST(NetServer, ResultSurvivesTrackedJobEviction) {
  ServerConfig cfg = quick_config();
  cfg.jobs.max_tracked_jobs = 2;  // the next submit past 2 prunes
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  const auto submit_and_finish = [&](int seed) {
    Json req = op("submit");
    req.set("deck", quick_deck_seed(seed));
    const Json reply = client.request(req);
    EXPECT_TRUE(reply.bool_or("ok", false)) << reply.dump();
    const std::string id = reply.str_or("id", "");
    EXPECT_EQ(wait_terminal(client, id), "done");
    return id;
  };

  const std::string first = submit_and_finish(41);
  Json rreq = op("result");
  rreq.set("id", first);
  const std::string curves = client.request(rreq).str_or("curves", "");
  ASSERT_FALSE(curves.empty());

  // Two more unique decks push the map past max_tracked_jobs and
  // evict the first job's bookkeeping entry.
  submit_and_finish(42);
  submit_and_finish(43);

  // The curves are still in the result cache — a slow poller must get
  // its result back, not unknown_job.
  rreq = op("result");
  rreq.set("id", first);
  const Json reply = client.request(rreq);
  ASSERT_TRUE(reply.bool_or("ok", false)) << reply.dump();
  EXPECT_TRUE(reply.bool_or("cached", false));
  EXPECT_EQ(reply.str_or("curves", ""), curves);

  // A well-formed id that never ran still reports unknown_job.
  rreq = op("result");
  rreq.set("id", "0123456789abcdef");
  EXPECT_EQ(client.request(rreq).str_or("error", ""), kErrUnknownJob);
  server.stop(false);
}

TEST(NetServer, QueueFullBackpressureAndQuota) {
  ServerConfig cfg = quick_config();
  cfg.jobs.executors = 1;
  cfg.jobs.max_queued = 1;
  cfg.client_quota = 2;
  cfg.retry_after_s = 0.25;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  // #1 occupies the single executor, #2 the single queue slot. #2 is
  // sent only once #1 runs: while #1 still waits in the queue, the
  // queue is already full.
  Json req = op("submit");
  req.set("deck", slow_deck(1));
  const Json first = client.request(req);
  ASSERT_TRUE(first.bool_or("ok", false));
  ASSERT_NO_FATAL_FAILURE(wait_running(client, first.str_or("id", "")));
  req = op("submit");
  req.set("deck", slow_deck(2));
  ASSERT_TRUE(client.request(req).bool_or("ok", false));

  // #3 must bounce with queue_full + retry_after (quota is 2, so the
  // queue bound is what trips first).
  req = op("submit");
  req.set("deck", slow_deck(3));
  Json reply = client.request(req);
  EXPECT_FALSE(reply.bool_or("ok", true));
  EXPECT_EQ(reply.str_or("error", ""), kErrQueueFull);
  EXPECT_EQ(reply.num_or("retry_after_s", 0), 0.25);

  // A second client with quota 1 trips the quota check instead.
  ServerConfig cfg2 = quick_config();
  cfg2.jobs.executors = 1;
  cfg2.jobs.max_queued = 8;
  cfg2.client_quota = 1;
  Server server2(cfg2);
  server2.start();
  LineClient c2 = connect_to(server2);
  req = op("submit");
  req.set("deck", slow_deck(4));
  ASSERT_TRUE(c2.request(req).bool_or("ok", false));
  req = op("submit");
  req.set("deck", slow_deck(5));
  reply = c2.request(req);
  EXPECT_EQ(reply.str_or("error", ""), kErrQuotaExceeded);

  server.stop(false);
  server2.stop(false);
}

TEST(NetServer, CancelAndDeadlineExpiry) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  // Cooperative cancel of a running job.
  Json req = op("submit");
  req.set("deck", slow_deck(10));
  Json reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false));
  const std::string id = reply.str_or("id", "");
  Json creq = op("cancel");
  creq.set("id", id);
  EXPECT_TRUE(client.request(creq).bool_or("ok", false));
  EXPECT_EQ(wait_terminal(client, id), "cancelled");
  Json rreq = op("result");
  rreq.set("id", id);
  EXPECT_EQ(client.request(rreq).str_or("error", ""), kErrJobFailed);

  // Deadline expiry: a tight per-job deadline halts the campaign.
  req = op("submit");
  req.set("deck", slow_deck(11)).set("deadline_s", 0.05);
  reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(wait_terminal(client, reply.str_or("id", "")), "expired");
  EXPECT_GE(server.stats().jobs_expired.load(), 1u);

  // Unknown-job paths.
  Json sreq = op("status");
  sreq.set("id", "doesnotexist0000");
  EXPECT_EQ(client.request(sreq).str_or("error", ""), kErrUnknownJob);
  server.stop(false);
}

TEST(NetServer, MidJobDisconnectDoesNotKillTheJob) {
  TempDir dir("disc");
  ServerConfig cfg = quick_config();
  cfg.jobs.state_dir = dir.path.string();
  Server server(cfg);
  server.start();

  std::string id;
  {
    LineClient client = connect_to(server);
    Json req = op("submit");
    req.set("deck", kQuickDeck);
    const Json reply = client.request(req);
    ASSERT_TRUE(reply.bool_or("ok", false));
    id = reply.str_or("id", "");
    // Hard-close mid-job: shutdown both directions, then drop the fd.
    ::shutdown(client.fd(), SHUT_RDWR);
  }

  LineClient again = connect_to(server);
  EXPECT_EQ(wait_terminal(again, id), "done");
  server.stop(false);
}

TEST(NetServer, MidStreamDisconnectIsContained) {
  Server server(quick_config());
  server.start();
  for (int i = 0; i < 3; ++i) {
    LineClient client = connect_to(server);
    Json req = op("waveform");
    req.set("standard", "wlan_80211a@12").set("bursts", 8).set("chunk", 64);
    client.send(req);
    (void)client.recv_line();  // first iq event is in flight
    client.close();            // vanish mid-stream
  }
  // The server must still be fully responsive afterwards.
  LineClient probe = connect_to(server);
  EXPECT_TRUE(probe.request(op("ping")).bool_or("ok", false));
  server.stop(false);
}

TEST(NetServer, IdleConnectionsAreDisconnected) {
  ServerConfig cfg = quick_config();
  cfg.idle_timeout_s = 0.3;
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);
  ASSERT_TRUE(client.request(op("ping")).bool_or("ok", false));

  const Json bye = client.recv_line(5.0);  // no traffic: server says bye
  EXPECT_EQ(bye.str_or("ev", ""), "bye");
  EXPECT_EQ(bye.str_or("reason", ""), "idle_timeout");
  EXPECT_THROW((void)client.recv_line(2.0), NetError);
  EXPECT_GE(server.stats().idle_disconnects.load(), 1u);
  server.stop(false);
}

TEST(NetServer, DrainHandsRunningJobsToTheNextProcess) {
  TempDir dir("drain");
  ServerConfig cfg = quick_config();
  cfg.jobs.state_dir = dir.path.string();

  // Reference curves from an uninterrupted local run.
  sim::Campaign reference(sim::parse_deck(slow_deck(20)));
  sim::RunOptions opts;
  opts.threads = 2;
  const auto ref = reference.run(opts);
  const std::string want = sim::curves_json(reference.deck(), ref);

  std::string id;
  {
    Server first(cfg);
    first.start();
    LineClient client = connect_to(first);
    Json req = op("submit");
    req.set("deck", slow_deck(20));
    const Json reply = client.request(req);
    ASSERT_TRUE(reply.bool_or("ok", false));
    id = reply.str_or("id", "");
    // Let it make some progress, then drain: the running campaign
    // checkpoints and its files stay on disk.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    first.stop(true);
  }
  ASSERT_TRUE(std::filesystem::exists(dir.path / (id + ".deck")));

  Server second(cfg);
  second.start();
  EXPECT_GE(second.recovered_jobs(), 1u);
  LineClient client = connect_to(second);
  EXPECT_EQ(wait_terminal(client, id, 60.0), "done");

  Json rreq = op("result");
  rreq.set("id", id);
  const Json reply = client.request(rreq);
  EXPECT_TRUE(reply.bool_or("recovered", false) ||
              reply.bool_or("ok", false));
  EXPECT_EQ(reply.str_or("curves", ""), want)
      << "resumed curves must be byte-identical";
  second.stop(false);
}

TEST(NetServer, ExplicitCancelIsNotResurrectedByDrain) {
  TempDir dir("canceldrain");
  ServerConfig cfg = quick_config();
  cfg.jobs.state_dir = dir.path.string();
  Server server(cfg);
  server.start();
  LineClient client = connect_to(server);

  Json req = op("submit");
  req.set("deck", slow_deck(30));
  const Json reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false));
  const std::string id = reply.str_or("id", "");

  // Wait until the job is actually running, then cancel and drain
  // back-to-back: the explicit cancel must outrank the drain handoff.
  ASSERT_NO_FATAL_FAILURE(wait_running(client, id));
  Json creq = op("cancel");
  creq.set("id", id);
  ASSERT_TRUE(client.request(creq).bool_or("ok", false));
  server.stop(true);  // drain — must not re-queue the cancelled job

  JobStatus st;
  ASSERT_TRUE(server.jobs().status(id, st));
  EXPECT_EQ(st.state, JobState::kCancelled);
  EXPECT_FALSE(std::filesystem::exists(dir.path / (id + ".deck")))
      << "a cancelled job's files must not revive in the next process";
}

TEST(NetServer, RecoveryIgnoresCorruptLeftovers) {
  TempDir dir("corrupt");
  // A deck file whose name doesn't match its digest, a garbage deck,
  // and a valid deck with a corrupt checkpoint.
  {
    std::ofstream(dir.path / "00000000deadbeef.deck") << kQuickDeck;
    std::ofstream(dir.path / "1111111111111111.deck") << "not = a deck\n";
    const auto id = [] {
      const auto deck = sim::parse_deck(kQuickDeck);
      char buf[17];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(sim::deck_digest(deck)));
      return std::string(buf);
    }();
    std::ofstream(dir.path / (id + ".deck")) << kQuickDeck;
    std::ofstream(dir.path / (id + ".ckpt")) << "torn checkpoint bytes";
  }
  ServerConfig cfg = quick_config();
  cfg.jobs.state_dir = dir.path.string();
  Server server(cfg);
  server.start();
  EXPECT_EQ(server.recovered_jobs(), 1u) << "only the valid deck revives";

  LineClient client = connect_to(server);
  Json req = op("submit");
  req.set("deck", kQuickDeck);
  const Json reply = client.request(req);
  ASSERT_TRUE(reply.bool_or("ok", false));
  EXPECT_EQ(wait_terminal(client, reply.str_or("id", "")), "done");
  server.stop(false);
}

TEST(NetServer, ConcurrentClientsStayIsolated) {
  Server server(quick_config());
  server.start();

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&server, &failures, t] {
      try {
        LineClient client = connect_to(server);
        for (int i = 0; i < 5; ++i) {
          if (!client.request(op("ping")).bool_or("ok", false)) ++failures;
          Json w = op("waveform");
          w.set("standard", "wlan_80211a@12").set("seed", t * 100 + i);
          cvec samples;
          if (!client.waveform(w, samples).bool_or("ok", false)) ++failures;
          if (samples.empty()) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.stats().connections_total.load(), (std::uint64_t)kClients);
  server.stop(false);
}

TEST(NetServer, BadDeckAndShutdownOps) {
  Server server(quick_config());
  server.start();
  LineClient client = connect_to(server);

  Json req = op("submit");
  req.set("deck", "standard = nonsense\n");
  Json reply = client.request(req);
  EXPECT_EQ(reply.str_or("error", ""), kErrBadDeck);
  EXPECT_FALSE(reply.str_or("detail", "").empty());

  reply = client.request(op("shutdown"));
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(server.shutdown_drain());
  server.stop(server.shutdown_drain());

  // Post-stop submits are refused, not crashed.
  const auto r = server.jobs().submit(kQuickDeck, 0.0, 0, 0);
  EXPECT_EQ(r.admission, JobManager::Admission::kShutdown);
}

}  // namespace
}  // namespace ofdm::net
