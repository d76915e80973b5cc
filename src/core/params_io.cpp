#include "core/params_io.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace ofdm::core {

namespace {

// Numeric conversion wrappers: the std::sto* family reports problems as
// std::invalid_argument / std::out_of_range, which would leak out of
// from_text() as generic exceptions. A parameter deck is user input, so
// every malformed value must surface as a ConfigError naming the field.

std::uint64_t parse_u64(const std::string& field, const std::string& s) {
  try {
    OFDM_REQUIRE(s.find('-') == std::string::npos,
                 "params_io: " + field + " must be non-negative, got '" +
                     s + "'");
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos, 0);
    OFDM_REQUIRE(pos == s.size(), "params_io: trailing junk in " + field +
                                      ": '" + s + "'");
    return static_cast<std::uint64_t>(v);
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("params_io: bad integer for " + field + ": '" + s +
                      "'");
  }
}

int parse_int(const std::string& field, const std::string& s) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    OFDM_REQUIRE(pos == s.size(), "params_io: trailing junk in " + field +
                                      ": '" + s + "'");
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("params_io: bad integer for " + field + ": '" + s +
                      "'");
  }
}

double parse_double(const std::string& field, const std::string& s) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    OFDM_REQUIRE(pos == s.size(), "params_io: trailing junk in " + field +
                                      ": '" + s + "'");
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("params_io: bad number for " + field + ": '" + s +
                      "'");
  }
}

char tone_code(ToneType t) {
  switch (t) {
    case ToneType::kNull: return 'n';
    case ToneType::kData: return 'd';
    case ToneType::kPilot: return 'p';
  }
  return 'n';
}

ToneType tone_from_code(char c) {
  switch (c) {
    case 'n': return ToneType::kNull;
    case 'd': return ToneType::kData;
    case 'p': return ToneType::kPilot;
    default:
      throw ConfigError(std::string("params_io: bad tone code '") + c +
                        "'");
  }
}

// Run-length encode the tone map: "n6,d26,p1,d14,..." in bin order.
std::string encode_tone_map(const std::vector<ToneType>& map) {
  std::ostringstream os;
  std::size_t i = 0;
  bool first = true;
  while (i < map.size()) {
    std::size_t run = 1;
    while (i + run < map.size() && map[i + run] == map[i]) ++run;
    if (!first) os << ',';
    os << tone_code(map[i]) << run;
    i += run;
    first = false;
  }
  return os.str();
}

std::vector<ToneType> decode_tone_map(const std::string& text) {
  std::vector<ToneType> map;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    OFDM_REQUIRE(item.size() >= 2, "params_io: malformed tone_map run");
    const ToneType t = tone_from_code(item[0]);
    const std::uint64_t run = parse_u64("tone_map", item.substr(1));
    map.insert(map.end(), run, t);
  }
  return map;
}

std::string encode_bit_table(const mapping::BitTable& table) {
  std::ostringstream os;
  std::size_t i = 0;
  bool first = true;
  while (i < table.size()) {
    std::size_t run = 1;
    while (i + run < table.size() && table[i + run] == table[i]) ++run;
    if (!first) os << ',';
    os << static_cast<unsigned>(table[i]) << 'x' << run;
    i += run;
    first = false;
  }
  return os.str();
}

mapping::BitTable decode_bit_table(const std::string& text) {
  mapping::BitTable table;
  if (text.empty()) return table;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    const std::size_t x = item.find('x');
    OFDM_REQUIRE(x != std::string::npos,
                 "params_io: malformed bit_table run");
    const std::uint64_t load = parse_u64("bit_table", item.substr(0, x));
    const std::uint64_t run = parse_u64("bit_table", item.substr(x + 1));
    table.insert(table.end(), run, static_cast<std::uint8_t>(load));
  }
  return table;
}

std::string encode_cvec(const cvec& v) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i].real() << ':' << v[i].imag();
  }
  return os.str();
}

cvec decode_cvec(const std::string& text) {
  cvec v;
  if (text.empty()) return v;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    const std::size_t colon = item.find(':');
    OFDM_REQUIRE(colon != std::string::npos,
                 "params_io: malformed complex value");
    v.emplace_back(parse_double("pilots.base_values", item.substr(0, colon)),
                   parse_double("pilots.base_values", item.substr(colon + 1)));
  }
  return v;
}

std::string encode_puncture(const coding::PuncturePattern& p) {
  std::ostringstream os;
  for (std::size_t j = 0; j < p.keep.size(); ++j) {
    if (j) os << '/';
    for (std::uint8_t k : p.keep[j]) os << (k ? '1' : '0');
  }
  return os.str();
}

coding::PuncturePattern decode_puncture(const std::string& text) {
  coding::PuncturePattern p;
  std::istringstream is(text);
  std::string row;
  while (std::getline(is, row, '/')) {
    std::vector<std::uint8_t> keep;
    for (char c : row) {
      OFDM_REQUIRE(c == '0' || c == '1',
                   "params_io: puncture rows are 0/1 strings");
      keep.push_back(c == '1');
    }
    p.keep.push_back(std::move(keep));
  }
  return p;
}

std::string encode_generators(const std::vector<std::uint32_t>& gens) {
  std::ostringstream os;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    if (i) os << ',';
    os << '0' << std::oct << gens[i] << std::dec;  // octal convention
  }
  return os.str();
}

/// Saturate instead of wrapping, so validate() sees an out-of-range value
/// rather than its low 32 bits.
std::uint32_t saturate_u32(std::uint64_t v) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(v, std::numeric_limits<std::uint32_t>::max()));
}

std::vector<std::uint32_t> decode_generators(const std::string& text) {
  std::vector<std::uint32_t> gens;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    gens.push_back(saturate_u32(parse_u64("fec.conv.generators", item)));
  }
  return gens;
}

}  // namespace

std::string to_text(const OfdmParams& p) {
  std::ostringstream os;
  os.precision(17);
  os << "# OFDM Mother Model parameter deck: "
     << standard_name(p.standard) << "\n";
  os << "standard=" << static_cast<int>(p.standard) << "\n";
  os << "variant=" << p.variant << "\n";
  os << "sample_rate=" << p.sample_rate << "\n";
  os << "fft_size=" << p.fft_size << "\n";
  os << "cp_len=" << p.cp_len << "\n";
  os << "window_ramp=" << p.window_ramp << "\n";
  os << "hermitian=" << (p.hermitian ? 1 : 0) << "\n";
  os << "tone_map=" << encode_tone_map(p.tone_map) << "\n";
  os << "mapping=" << static_cast<int>(p.mapping) << "\n";
  os << "scheme=" << static_cast<int>(p.scheme) << "\n";
  os << "diff_kind=" << static_cast<int>(p.diff_kind) << "\n";
  os << "bit_table=" << encode_bit_table(p.bit_table) << "\n";
  os << "scrambler.enabled=" << (p.scrambler.enabled ? 1 : 0) << "\n";
  os << "scrambler.degree=" << p.scrambler.degree << "\n";
  os << "scrambler.taps=0x" << std::hex << p.scrambler.taps << std::dec
     << "\n";
  os << "scrambler.seed=0x" << std::hex << p.scrambler.seed << std::dec
     << "\n";
  os << "fec.rs_enabled=" << (p.fec.rs_enabled ? 1 : 0) << "\n";
  os << "fec.rs_n=" << p.fec.rs_n << "\n";
  os << "fec.rs_k=" << p.fec.rs_k << "\n";
  os << "fec.conv_enabled=" << (p.fec.conv_enabled ? 1 : 0) << "\n";
  os << "fec.conv.k=" << p.fec.conv.constraint_length << "\n";
  os << "fec.conv.generators=" << encode_generators(p.fec.conv.generators)
     << "\n";
  os << "fec.puncture=" << encode_puncture(p.fec.puncture) << "\n";
  os << "interleaver.kind=" << static_cast<int>(p.interleaver.kind)
     << "\n";
  os << "interleaver.rows=" << p.interleaver.rows << "\n";
  os << "interleaver.seed=0x" << std::hex << p.interleaver.seed
     << std::dec << "\n";
  os << "pilots.base_values=" << encode_cvec(p.pilots.base_values)
     << "\n";
  os << "pilots.polarity_prbs=" << (p.pilots.polarity_prbs ? 1 : 0)
     << "\n";
  os << "pilots.prbs_degree=" << p.pilots.prbs_degree << "\n";
  os << "pilots.prbs_taps=0x" << std::hex << p.pilots.prbs_taps
     << std::dec << "\n";
  os << "pilots.prbs_seed=0x" << std::hex << p.pilots.prbs_seed
     << std::dec << "\n";
  os << "pilots.boost=" << p.pilots.boost << "\n";
  os << "frame.symbols_per_frame=" << p.frame.symbols_per_frame << "\n";
  os << "frame.preamble=" << static_cast<int>(p.frame.preamble) << "\n";
  os << "frame.null_samples=" << p.frame.null_samples << "\n";
  os << "frame.phase_ref_seed=0x" << std::hex << p.frame.phase_ref_seed
     << std::dec << "\n";
  os << "nominal_rf_hz=" << p.nominal_rf_hz << "\n";
  return os.str();
}

OfdmParams from_text(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim whitespace.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    const std::size_t eq = line.find('=');
    OFDM_REQUIRE(eq != std::string::npos,
                 "params_io: expected key=value, got: " + line);
    OFDM_REQUIRE(eq > 0, "params_io: empty key in line: " + line);
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }

  OfdmParams p;
  auto take = [&kv](const std::string& key) {
    const auto it = kv.find(key);
    OFDM_REQUIRE(it != kv.end(), "params_io: missing key " + key);
    const std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto take_u64 = [&](const std::string& key) {
    return parse_u64(key, take(key));
  };
  auto take_int = [&](const std::string& key) {
    return parse_int(key, take(key));
  };
  auto take_double = [&](const std::string& key) {
    return parse_double(key, take(key));
  };

  p.standard = static_cast<Standard>(take_int("standard"));
  p.variant = take("variant");
  p.sample_rate = take_double("sample_rate");
  p.fft_size = take_u64("fft_size");
  p.cp_len = take_u64("cp_len");
  p.window_ramp = take_u64("window_ramp");
  p.hermitian = take_u64("hermitian") != 0;
  p.tone_map = decode_tone_map(take("tone_map"));
  p.mapping = static_cast<MappingKind>(take_int("mapping"));
  p.scheme = static_cast<mapping::Scheme>(take_int("scheme"));
  p.diff_kind = static_cast<mapping::DiffKind>(take_int("diff_kind"));
  p.bit_table = decode_bit_table(take("bit_table"));
  p.scrambler.enabled = take_u64("scrambler.enabled") != 0;
  p.scrambler.degree =
      static_cast<unsigned>(take_u64("scrambler.degree"));
  p.scrambler.taps = take_u64("scrambler.taps");
  p.scrambler.seed = take_u64("scrambler.seed");
  p.fec.rs_enabled = take_u64("fec.rs_enabled") != 0;
  p.fec.rs_n = take_u64("fec.rs_n");
  p.fec.rs_k = take_u64("fec.rs_k");
  p.fec.conv_enabled = take_u64("fec.conv_enabled") != 0;
  p.fec.conv.constraint_length = saturate_u32(take_u64("fec.conv.k"));
  p.fec.conv.generators = decode_generators(take("fec.conv.generators"));
  p.fec.puncture = decode_puncture(take("fec.puncture"));
  p.interleaver.kind =
      static_cast<InterleaverKind>(take_int("interleaver.kind"));
  p.interleaver.rows = take_u64("interleaver.rows");
  p.interleaver.seed = take_u64("interleaver.seed");
  p.pilots.base_values = decode_cvec(take("pilots.base_values"));
  p.pilots.polarity_prbs = take_u64("pilots.polarity_prbs") != 0;
  p.pilots.prbs_degree =
      static_cast<unsigned>(take_u64("pilots.prbs_degree"));
  p.pilots.prbs_taps = take_u64("pilots.prbs_taps");
  p.pilots.prbs_seed = take_u64("pilots.prbs_seed");
  p.pilots.boost = take_double("pilots.boost");
  p.frame.symbols_per_frame = take_u64("frame.symbols_per_frame");
  p.frame.preamble =
      static_cast<PreambleKind>(take_int("frame.preamble"));
  p.frame.null_samples = take_u64("frame.null_samples");
  p.frame.phase_ref_seed = take_u64("frame.phase_ref_seed");
  p.nominal_rf_hz = take_double("nominal_rf_hz");

  OFDM_REQUIRE(kv.empty(),
               "params_io: unknown key " +
                   (kv.empty() ? std::string() : kv.begin()->first));
  validate(p);
  return p;
}

}  // namespace ofdm::core
