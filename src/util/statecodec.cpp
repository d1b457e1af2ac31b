#include "util/statecodec.hpp"

#include <random>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace stayaway::util {

namespace {

[[noreturn]] void fail(std::string_view key, const std::string& detail) {
  throw StateCodecError("state snapshot: field '" + std::string(key) + "': " +
                        detail);
}

/// `<n> <item> ...` with exactly n items, each parsed by `parse`.
template <typename T, typename Parse>
void parse_vector(std::string_view key, const std::string& text,
                  std::vector<T>& out, Parse parse) {
  std::istringstream in(text);
  std::uint64_t n = 0;
  std::string item;
  if (!(in >> item) || !parse_u64(item, n)) fail(key, "malformed vector count");
  out.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!(in >> item)) fail(key, "vector shorter than its count");
    out.push_back(parse(item));
  }
  if (in >> item) fail(key, "vector longer than its count");
}

}  // namespace

double parse_exact_double(const std::string& text, std::string_view what) {
  if (text.empty()) fail(what, "empty double");
  double v = 0.0;
  if (!parse_double(text, v)) fail(what, "malformed double '" + text + "'");
  return v;
}

void StateIO::emit(std::string_view key, std::string_view value) {
  SA_CHECK(key.find_first_of(" =\n") == std::string_view::npos,
           "snapshot keys are bare identifiers");
  SA_CHECK(value.find('\n') == std::string_view::npos,
           "snapshot values are single lines");
  *out_ << key << " = " << value << '\n';
}

std::string StateIO::next_value(std::string_view key) {
  std::string raw;
  if (!std::getline(*in_, raw)) {
    fail(key, "snapshot truncated (field missing)");
  }
  if (in_->eof()) {
    // getline consumed characters but hit EOF before the delimiter:
    // the final line was cut mid-record.
    fail(key, "snapshot truncated (missing trailing newline)");
  }
  auto eq = raw.find(" = ");
  if (eq == std::string::npos) fail(key, "malformed line '" + raw + "'");
  std::string got = raw.substr(0, eq);
  if (got != key) fail(key, "found field '" + got + "' instead");
  return raw.substr(eq + 3);
}

void StateIO::out_of_range(std::string_view key) {
  fail(key, "value out of range");
}

void StateIO::u64(std::string_view key, std::uint64_t& v) {
  if (!loading()) {
    emit(key, std::to_string(v));
    return;
  }
  std::string text = next_value(key);
  if (!parse_u64(text, v)) fail(key, "malformed u64 '" + text + "'");
}

void StateIO::boolean(std::string_view key, bool& v) {
  if (!loading()) {
    emit(key, v ? "true" : "false");
    return;
  }
  std::string text = next_value(key);
  if (text != "true" && text != "false") {
    fail(key, "malformed bool '" + text + "'");
  }
  v = text == "true";
}

void StateIO::real(std::string_view key, double& v) {
  if (!loading()) {
    emit(key, format_double_exact(v));
    return;
  }
  v = parse_exact_double(next_value(key), key);
}

void StateIO::line(std::string_view key, std::string& v) {
  if (!loading()) {
    emit(key, v);
    return;
  }
  v = next_value(key);
}

void StateIO::reals(std::string_view key, std::vector<double>& v) {
  if (!loading()) {
    std::string text = std::to_string(v.size());
    for (double x : v) {
      text += ' ';
      text += format_double_exact(x);
    }
    emit(key, text);
    return;
  }
  parse_vector(key, next_value(key), v, [key](const std::string& item) {
    return parse_exact_double(item, key);
  });
}

void StateIO::u64s(std::string_view key, std::vector<std::uint64_t>& v) {
  if (!loading()) {
    std::string text = std::to_string(v.size());
    for (std::uint64_t x : v) {
      text += ' ';
      text += std::to_string(x);
    }
    emit(key, text);
    return;
  }
  parse_vector(key, next_value(key), v, [key](const std::string& item) {
    std::uint64_t x = 0;
    if (!parse_u64(item, x)) fail(key, "malformed entry '" + item + "'");
    return x;
  });
}

void StateIO::rng(std::string_view key, Rng& engine) {
  if (!loading()) {
    std::ostringstream text;
    text << engine.engine();
    emit(key, text.str());
    return;
  }
  std::istringstream text(next_value(key));
  std::mt19937_64 restored;
  text >> restored;
  if (text.fail()) fail(key, "malformed mt19937_64 stream");
  engine.engine() = restored;
}

void StateIO::expect(std::string_view key, bool actual,
                     std::string_view what) {
  bool stored = actual;
  boolean(key, stored);
  if (stored != actual) throw StateCodecError(std::string(what));
}

void StateIO::expect(std::string_view key, std::uint64_t actual,
                     std::string_view what) {
  std::uint64_t stored = actual;
  u64(key, stored);
  if (stored != actual) throw StateCodecError(std::string(what));
}

void StateIO::expect(std::string_view key, const std::string& actual,
                     std::string_view what) {
  std::string stored = actual;
  line(key, stored);
  if (stored != actual) throw StateCodecError(std::string(what));
}

void StateIO::expect_end(std::string_view what) {
  if (loading() && in_->peek() != std::istream::traits_type::eof()) {
    throw StateCodecError("trailing data after " + std::string(what));
  }
}

}  // namespace stayaway::util
