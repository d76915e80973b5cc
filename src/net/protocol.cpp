#include "net/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

namespace ofdm::net {

namespace {
constexpr char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// 256-entry reverse table; 0xFF = invalid byte.
struct Reverse {
  std::uint8_t v[256];
  constexpr Reverse() : v() {
    for (int i = 0; i < 256; ++i) v[i] = 0xFF;
    for (int i = 0; i < 64; ++i) {
      v[static_cast<unsigned char>(kAlphabet[i])] =
          static_cast<std::uint8_t>(i);
    }
  }
};
constexpr Reverse kReverse;

// kPairs.c[v]: the two base64 digits of the 12-bit value v, so a 3-byte
// group is two lookups.
struct Pairs {
  char c[4096][2];
  constexpr Pairs() : c() {
    for (int v = 0; v < 4096; ++v) {
      c[v][0] = kAlphabet[v >> 6];
      c[v][1] = kAlphabet[v & 63];
    }
  }
};
constexpr Pairs kPairs;

constexpr std::size_t kIqBytes = 2 * sizeof(float);  // one (re,im) pair
/// Samples staged per block on both IQ paths: a multiple of 3, so a
/// whole block is whole base64 groups and only the last block pads.
constexpr std::size_t kIqBlock = 192;
constexpr std::size_t kIqBlockChars = kIqBlock * kIqBytes / 3 * 4;

std::size_t encoded_size(std::size_t bytes) { return (bytes + 2) / 3 * 4; }

/// Encode n bytes to dst, padding the final group; returns the end.
char* encode(const std::uint8_t* src, std::size_t n, char* dst) {
  std::size_t i = 0;
  for (; i + 3 <= n; i += 3, dst += 4) {
    const std::uint32_t v = (static_cast<std::uint32_t>(src[i]) << 16) |
                            (static_cast<std::uint32_t>(src[i + 1]) << 8) |
                            src[i + 2];
    std::memcpy(dst, kPairs.c[v >> 12], 2);
    std::memcpy(dst + 2, kPairs.c[v & 0xFFF], 2);
  }
  const std::size_t rem = n - i;
  if (rem != 0) {
    const std::uint32_t v =
        (static_cast<std::uint32_t>(src[i]) << 16) |
        (rem == 2 ? static_cast<std::uint32_t>(src[i + 1]) << 8 : 0u);
    dst[0] = kAlphabet[v >> 18];
    dst[1] = kAlphabet[(v >> 12) & 63];
    dst[2] = rem == 2 ? kAlphabet[(v >> 6) & 63] : '=';
    dst[3] = '=';
    dst += 4;
  }
  return dst;
}

void check_length(std::string_view text) {
  if (text.size() % 4 != 0) {
    throw NetError("base64: length " + std::to_string(text.size()) +
                   " is not a multiple of 4");
  }
}

/// Decode `text` (a multiple of 4 chars) to dst and return the end.
/// '=' is legal only as padding of the payload's last group ("xx==" or
/// "xxx="), which is the last group of the `final` slice.
std::uint8_t* decode(std::string_view text, bool final, std::uint8_t* dst) {
  const auto* s = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t groups = text.size() / 4;
  // Digits are < 64 and every other byte, '=' included, maps to 0xFF,
  // so one OR over all digits flags the whole text.
  std::uint32_t invalid = 0;
  for (std::size_t g = 0; g < groups; ++g, s += 4) {
    const bool pad3 = final && g + 1 == groups && s[3] == '=';
    const bool pad2 = pad3 && s[2] == '=';
    const std::uint32_t a = kReverse.v[s[0]], b = kReverse.v[s[1]];
    const std::uint32_t c = pad2 ? 0 : kReverse.v[s[2]];
    const std::uint32_t d = pad3 ? 0 : kReverse.v[s[3]];
    invalid |= a | b | c | d;
    const std::uint32_t v = (a << 18) | (b << 12) | (c << 6) | d;
    dst[0] = static_cast<std::uint8_t>(v >> 16);
    dst[1] = static_cast<std::uint8_t>(v >> 8);
    dst[2] = static_cast<std::uint8_t>(v);
    dst += 3 - pad2 - pad3;
  }
  if (invalid > 63) {
    throw NetError("base64: byte outside the alphabet or misplaced '='");
  }
  return dst;
}

void append_uint(std::string& out, std::size_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

std::string base64_encode(std::span<const std::uint8_t> bytes) {
  std::string out(encoded_size(bytes.size()), '\0');
  encode(bytes.data(), bytes.size(), out.data());
  return out;
}

std::vector<std::uint8_t> base64_decode(std::string_view text) {
  check_length(text);
  std::vector<std::uint8_t> out(text.size() / 4 * 3);
  const std::uint8_t* end = decode(text, /*final=*/true, out.data());
  out.resize(static_cast<std::size_t>(end - out.data()));
  return out;
}

void pack_iq_f32(std::string& out, std::span<const cplx> samples) {
  const std::size_t at = out.size();
  out.resize(at + encoded_size(samples.size() * kIqBytes));
  char* dst = out.data() + at;
  std::uint8_t raw[kIqBlock * kIqBytes];
  for (std::size_t off = 0; off < samples.size(); off += kIqBlock) {
    const std::size_t n = std::min(kIqBlock, samples.size() - off);
    std::uint8_t* p = raw;
    for (const cplx& x : samples.subspan(off, n)) {
      const float re = static_cast<float>(x.real());
      const float im = static_cast<float>(x.imag());
      std::memcpy(p, &re, sizeof re);
      std::memcpy(p + sizeof re, &im, sizeof im);
      p += kIqBytes;
    }
    dst = encode(raw, n * kIqBytes, dst);
  }
}

void unpack_iq_f32(std::string_view base64, cvec& out) {
  check_length(base64);
  // Size for the unpadded length; the final group's padding is only
  // known once decode() has read it, so `out` is shrunk at the end.
  const std::size_t at = out.size();
  out.resize(at + base64.size() / 4 * 3 / kIqBytes);
  cplx* x = out.data() + at;
  std::uint8_t raw[kIqBlock * kIqBytes];
  try {
    for (std::size_t off = 0; off < base64.size(); off += kIqBlockChars) {
      const std::string_view part = base64.substr(off, kIqBlockChars);
      const std::uint8_t* end =
          decode(part, off + part.size() == base64.size(), raw);
      // Only the last slice can end mid-pair: the others are whole blocks.
      const std::size_t bytes = static_cast<std::size_t>(end - raw);
      if (bytes % kIqBytes != 0) {
        throw NetError("iq payload: " + std::to_string(off / 4 * 3 + bytes) +
                       " bytes is not a whole number of float32 (re,im) "
                       "pairs");
      }
      for (const std::uint8_t* p = raw; p < end; p += kIqBytes) {
        float re, im;
        std::memcpy(&re, p, sizeof re);
        std::memcpy(&im, p + sizeof re, sizeof im);
        *x++ = {re, im};
      }
    }
  } catch (const NetError&) {
    out.resize(at);  // a refused payload leaves `out` as it was
    throw;
  }
  out.resize(static_cast<std::size_t>(x - out.data()));
}

void append_iq_event(std::string& out, std::size_t burst, std::size_t seq,
                     std::span<const cplx> samples) {
  out += R"({"ev":"iq","burst":)";
  append_uint(out, burst);
  out += R"(,"seq":)";
  append_uint(out, seq);
  out += R"(,"n":)";
  append_uint(out, samples.size());
  out += R"(,"data":")";
  pack_iq_f32(out, samples);
  out += "\"}\n";
}

bool in_range(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

Json ok_reply(const std::string& op) {
  Json r = Json::object();
  r.set("ok", true);
  r.set("op", op);
  return r;
}

Json error_reply(const std::string& op, const std::string& code,
                 const std::string& detail) {
  Json r = Json::object();
  r.set("ok", false);
  if (!op.empty()) r.set("op", op);
  r.set("error", code);
  if (!detail.empty()) r.set("detail", detail);
  return r;
}

}  // namespace ofdm::net
