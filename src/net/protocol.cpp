#include "net/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "dsp/simd/dispatch.hpp"

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

constexpr std::size_t kIqBytes = 2 * sizeof(float);  // one (re,im) pair
/// The IQ kernels' unit: 3 samples = 24 bytes = 32 digits, no padding.
constexpr std::size_t kIqBlock = 3;
constexpr std::size_t kIqBlockChars = 32;

std::size_t encoded_size(std::size_t bytes) { return (bytes + 2) / 3 * 4; }

void check_length(std::string_view text) {
  if (text.size() % 4 != 0) {
    throw NetError("base64: length " + std::to_string(text.size()) +
                   " is not a multiple of 4");
  }
}

/// '=' digits ending the final group ("xxx=" 1, "xx==" 2). They stand
/// for zero bits; any other '=' is refused as a non-alphabet byte.
std::size_t padding(std::string_view text) {
  const std::size_t n = text.size();
  if (n == 0 || text[n - 1] != '=') return 0;
  return text[n - 2] == '=' ? 2 : 1;
}

[[noreturn]] void refuse_alphabet() {
  throw NetError("base64: byte outside the alphabet or misplaced '='");
}

void append_uint(std::string& out, std::size_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

std::string base64_encode(std::span<const std::uint8_t> bytes) {
  // Digits a partial final group does not reach stay '='.
  std::string out(encoded_size(bytes.size()), '=');
  for (std::size_t i = 0, o = 0; i < bytes.size(); i += 3, o += 4) {
    const std::size_t k = std::min<std::size_t>(3, bytes.size() - i);
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < k; ++j) {
      v |= std::uint32_t{bytes[i + j]} << (16 - 8 * j);
    }
    for (std::size_t j = 0; j <= k; ++j) {
      out[o + j] = kAlphabet[(v >> (18 - 6 * j)) & 63];
    }
  }
  return out;
}

std::vector<std::uint8_t> base64_decode(std::string_view text) {
  check_length(text);
  const std::size_t pad = padding(text);
  std::vector<std::uint8_t> out(text.size() / 4 * 3);
  // Digits are < 64 and every other byte maps to 0xFF, so one OR over
  // all digits flags the whole text; padding digits read as zero.
  std::uint32_t invalid = 0;
  for (std::size_t i = 0, o = 0; i < text.size(); i += 4, o += 3) {
    std::uint32_t v = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const std::uint32_t d =
          i + j + pad >= text.size()
              ? 0
              : kReverse.v[static_cast<unsigned char>(text[i + j])];
      invalid |= d;
      v = (v << 6) | d;
    }
    out[o] = static_cast<std::uint8_t>(v >> 16);
    out[o + 1] = static_cast<std::uint8_t>(v >> 8);
    out[o + 2] = static_cast<std::uint8_t>(v);
  }
  if (invalid > 63) refuse_alphabet();
  out.resize(out.size() - pad);
  return out;
}

void pack_iq_f32(std::string& out, std::span<const cplx> samples) {
  const simd::Kernels& k = simd::kernels();
  const std::size_t body = samples.size() / kIqBlock * kIqBlock;
  const std::size_t at = out.size();
  out.resize(at + encoded_size(samples.size() * kIqBytes));
  char* dst = out.data() + at;
  k.iq_pack(samples.data(), body, dst);
  // The last 1 or 2 samples are zero-filled to one block (+0.0f is all
  // zero bytes, the bits base64 pads with) and cut to 12 digits ending
  // "=" or 24 ending "==".
  if (const std::size_t rem = samples.size() - body; rem != 0) {
    cplx tail[kIqBlock] = {};
    std::copy(samples.begin() + body, samples.end(), tail);
    char digits[kIqBlockChars];
    k.iq_pack(tail, kIqBlock, digits);
    const std::size_t n = rem == 1 ? 12 : 24;
    dst += body / kIqBlock * kIqBlockChars;
    std::copy(digits, digits + n - rem, dst);
    std::fill(dst + n - rem, dst + n, '=');
  }
}

void unpack_iq_f32(std::string_view base64, cvec& out) {
  check_length(base64);
  if (base64.empty()) return;
  // The kernel takes whole blocks; the last 4..32 digits are staged
  // into one block filled up with 'A' (zero bits), padding included.
  const std::size_t tail = (base64.size() - 1) % kIqBlockChars + 1;
  const std::size_t body = base64.size() - tail;
  const std::size_t pad = padding(base64);
  char staged[kIqBlockChars];
  std::fill(std::copy(base64.end() - tail, base64.end() - pad, staged),
            staged + kIqBlockChars, 'A');
  const std::size_t bytes = base64.size() / 4 * 3 - pad;
  const simd::Kernels& k = simd::kernels();
  const std::size_t at = out.size();
  const std::size_t whole = body / kIqBlockChars * kIqBlock;
  out.resize(at + whole + kIqBlock);
  const bool invalid =
      k.iq_unpack(base64.data(), body, out.data() + at) |
      k.iq_unpack(staged, kIqBlockChars, out.data() + at + whole);
  if (invalid || bytes % kIqBytes != 0) {
    out.resize(at);  // a refused payload leaves `out` as it was
    if (invalid) refuse_alphabet();
    throw NetError("iq payload: " + std::to_string(bytes) +
                   " bytes is not a whole number of float32 (re,im) pairs");
  }
  out.resize(at + bytes / kIqBytes);
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
