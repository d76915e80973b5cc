#include "net/json.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ofdm::net {

namespace {

constexpr std::size_t kMaxDepth = 64;

/// True when none of the 8 bytes of w is '"', '\\' or below 0x20. Each
/// test is the SWAR "has a zero byte" (or "has a byte below n") check,
/// exact as a yes/no answer, and that answer does not depend on byte
/// order.
bool plain_word(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = kOnes * 0x80;
  const auto has_zero = [](std::uint64_t v) {
    return (v - kOnes) & ~v & kHigh;
  };
  const std::uint64_t control = (w - kOnes * 0x20) & ~w & kHigh;
  return (has_zero(w ^ (kOnes * '"')) | has_zero(w ^ (kOnes * '\\')) |
          control) == 0;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw NetError("json: " + what + " at offset " + std::to_string(pos));
  }

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || text[pos] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume(char c) {
    if (!eof() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text.substr(pos, w.size()) == w) {
      pos += w.size();
      return true;
    }
    return false;
  }

  Json value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return Json(string());
    if (c == 't') {
      if (consume_word("true")) return Json(true);
      fail("bad literal");
    }
    if (c == 'f') {
      if (consume_word("false")) return Json(false);
      fail("bad literal");
    }
    if (c == 'n') {
      if (consume_word("null")) return Json(nullptr);
      fail("bad literal");
    }
    if (c == '-' || (c >= '0' && c <= '9')) return Json(number());
    fail("unexpected character");
  }

  Json object(std::size_t depth) {
    expect('{');
    Json::Object out;
    skip_ws();
    if (consume('}')) return Json(std::move(out));
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Json(std::move(out));
    }
  }

  Json array(std::size_t depth) {
    expect('[');
    Json::Array out;
    skip_ws();
    if (consume(']')) return Json(std::move(out));
    while (true) {
      out.push_back(value(depth + 1));
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Json(std::move(out));
    }
  }

  double number() {
    const std::size_t start = pos;
    if (consume('-') && eof()) fail("bad number");
    // Strict JSON grammar: int [frac] [exp], no leading '+', no hex,
    // no bare '.', no "01".
    if (eof()) fail("bad number");
    if (consume('0')) {
      // leading zero must not be followed by another digit
      if (!eof() && peek() >= '0' && peek() <= '9') fail("bad number");
    } else if (peek() >= '1' && peek() <= '9') {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    } else {
      fail("bad number");
    }
    if (consume('.')) {
      if (eof() || peek() < '0' || peek() > '9') fail("bad number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (eof() || peek() < '0' || peek() > '9') fail("bad number");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    return v;
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("truncated \\u escape");
      const char c = text[pos++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, escape or
      // control byte with one append. Whole words proven plain are
      // skipped first; the byte loop then finds the exact end. A word
      // that fails is followed by at least one consumed special byte,
      // so the scan stays one linear pass.
      const std::size_t start = pos;
      for (std::uint64_t w; text.size() - pos >= sizeof w; pos += sizeof w) {
        std::memcpy(&w, text.data() + pos, sizeof w);
        if (!plain_word(w)) break;
      }
      while (!eof()) {
        const unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos;
      }
      out.append(text.data() + start, pos - start);
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text[pos++]);
      if (c == '"') return out;
      if (c < 0x20) fail("raw control character in string");
      if (eof()) fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // high surrogate: require a paired \uDC00-\uDFFF
            if (!consume('\\') || !consume('u')) {
              fail("unpaired surrogate");
            }
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::str_or(std::string_view key,
                         const std::string& dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : dflt;
}

double Json::num_or(std::string_view key, double dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : dflt;
}

bool Json::bool_or(std::string_view key, bool dflt) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : dflt;
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) v_ = Object{};
  std::get<Object>(v_).emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (!is_array()) v_ = Array{};
  std::get<Array>(v_).push_back(std::move(value));
  return *this;
}

namespace {

/// Append `s` JSON-escaped, copying runs of plain bytes in bulk.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending plain run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void dump_value(const Json& j, std::string& out) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_number()) {
    const double v = j.as_number();
    char buf[40];
    if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    out += buf;
  } else if (j.is_string()) {
    out.push_back('"');
    append_escaped(out, j.as_string());
    out.push_back('"');
  } else if (j.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Json& v : j.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_value(v, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : j.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      out.push_back('"');
      append_escaped(out, k);
      out += "\":";
      dump_value(v, out);
    }
    out.push_back('}');
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json json_parse(std::string_view text) {
  Parser p{text};
  Json v = p.value(0);
  p.skip_ws();
  if (!p.eof()) p.fail("trailing input after JSON value");
  return v;
}

}  // namespace ofdm::net
