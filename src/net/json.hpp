// Minimal strict JSON for the line-oriented wire protocol.
//
// The daemon's protocol needs exactly one JSON object per line in both
// directions, parsed from untrusted bytes — so this parser is strict
// and bounded by construction: UTF-8 pass-through, \uXXXX escapes,
// a hard nesting-depth cap, no trailing input, every malformed byte
// surfacing as ofdm::net::NetError with an offset. It is NOT a general
// JSON library: numbers are doubles (exact for the integers the
// protocol carries, which all fit in 2^53), object keys keep insertion
// order and may repeat (find() returns the first).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace ofdm::net {

/// Raised for every protocol-level failure: malformed JSON, bad base64,
/// socket errors, handshake violations.
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error(what) {}
};

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int i) : v_(static_cast<double>(i)) {}
  Json(unsigned long n) : v_(static_cast<double>(n)) {}
  Json(unsigned long long n) : v_(static_cast<double>(n)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::move(a)) {}
  Json(Object o) : v_(std::move(o)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool(bool dflt = false) const {
    return is_bool() ? std::get<bool>(v_) : dflt;
  }
  double as_number(double dflt = 0.0) const {
    return is_number() ? std::get<double>(v_) : dflt;
  }
  const std::string& as_string() const {
    static const std::string empty;
    return is_string() ? std::get<std::string>(v_) : empty;
  }
  const Array& as_array() const {
    static const Array empty;
    return is_array() ? std::get<Array>(v_) : empty;
  }
  const Object& as_object() const {
    static const Object empty;
    return is_object() ? std::get<Object>(v_) : empty;
  }

  /// First value under `key` in an object; nullptr when absent (or when
  /// this value is not an object).
  const Json* find(std::string_view key) const;

  /// Convenience lookups used all over the protocol handlers.
  std::string str_or(std::string_view key, const std::string& dflt) const;
  double num_or(std::string_view key, double dflt) const;
  bool bool_or(std::string_view key, bool dflt) const;

  /// Append/overwrite-free object insertion (protocol replies are
  /// write-once, so a plain append keeps deterministic field order).
  Json& set(std::string key, Json value);
  Json& push_back(Json value);

  /// Serialize; deterministic bytes (fixed escaping, '%.17g' numbers
  /// with integer values rendered without exponent/decimal point).
  std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parse exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed). Throws NetError naming the byte offset on any
/// syntax error, on nesting deeper than 64, and on trailing input.
Json json_parse(std::string_view text);

}  // namespace ofdm::net
