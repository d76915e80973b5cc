// Wire protocol of ofdm_serverd: newline-delimited JSON objects over
// TCP, one request or reply/event per line.
//
// Grammar (DESIGN.md §15 has the full table):
//   client -> server   { "op": <string>, ...op fields }
//   server -> client   { "ok": true, ...result fields }
//                    | { "ok": false, "error": <code>, "detail": ... }
//                    | { "ev": "iq", ... }   (waveform stream)
//                    | { "ev": "bye", ... }  (before an idle disconnect)
//
// Every reply carries "op" echoed back, plus "id" when the request had
// one (client-side correlation). Error codes are machine-readable
// snake_case strings; "detail" is human-readable and may change.
//
// Bulk IQ is framed as events: interleaved little-endian float32
// (re,im) pairs, base64-encoded, `chunk` samples per "iq" line — large
// enough to amortize the per-line parse, small enough to keep the
// client's line buffer to tens of kilobytes. The server writes
// each "iq" line straight into a reused buffer (append_iq_event, no
// Json object on this path) and sends one burst's lines with one
// write; the terminal reply rides with the last burst. The bytes are
// exactly those of Json{ev,burst,seq,n,data}.dump() + "\n".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/json.hpp"

namespace ofdm::net {

/// Error codes (the machine-readable contract; see DESIGN.md §15).
inline constexpr const char* kErrBadJson = "bad_json";
inline constexpr const char* kErrBadRequest = "bad_request";
inline constexpr const char* kErrUnknownOp = "unknown_op";
inline constexpr const char* kErrOversizedFrame = "oversized_frame";
inline constexpr const char* kErrBusy = "busy";
inline constexpr const char* kErrBadDeck = "bad_deck";
inline constexpr const char* kErrQueueFull = "queue_full";
inline constexpr const char* kErrQuotaExceeded = "quota_exceeded";
inline constexpr const char* kErrUnknownJob = "unknown_job";
inline constexpr const char* kErrNotDone = "not_done";
inline constexpr const char* kErrJobFailed = "job_failed";
inline constexpr const char* kErrShuttingDown = "shutting_down";
inline constexpr const char* kErrInternal = "internal";

/// Base64 (RFC 4648, with padding) of arbitrary bytes, a group at a
/// time: the reference the IQ codec below is tested against. decode
/// throws NetError on any non-alphabet byte, bad padding, or truncated
/// input.
std::string base64_encode(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> base64_decode(std::string_view text);

/// Append `samples` as base64 of interleaved little-endian float32
/// (re,im) pairs, through the active tier's simd::Kernels::iq_pack; the
/// digits equal base64_encode of those bytes.
void pack_iq_f32(std::string& out, std::span<const cplx> samples);
/// Decode such a payload and append its samples to `out`; throws
/// NetError on bad base64 or when the payload is not a whole number of
/// (re,im) float32 pairs.
void unpack_iq_f32(std::string_view base64, cvec& out);

/// Append one `{"ev":"iq","burst":..,"seq":..,"n":..,"data":".."}\n`
/// event line, `n` being samples.size().
void append_iq_event(std::string& out, std::size_t burst, std::size_t seq,
                     std::span<const cplx> samples);

/// Finite and inside [lo, hi]: the only doubles safe to static_cast to
/// an unsigned integer of the matching range. NaN fails too; every
/// comparison with NaN is false, so a naive `v < lo || v > hi` lets it
/// through into undefined behaviour. Every integer read off the wire is
/// checked with this before its cast, on both ends.
bool in_range(double v, double lo, double hi);
/// Largest double whose static_cast to uint64_t/size_t is exact.
inline constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

/// Reply skeletons. Field order is fixed so replies are byte-stable.
Json ok_reply(const std::string& op);
Json error_reply(const std::string& op, const std::string& code,
                 const std::string& detail);

}  // namespace ofdm::net
