#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace stayaway {

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    std::size_t last = s.find_last_not_of('0');
    if (s[last] == '.') last = (last == 0) ? 0 : last - 1;
    s.erase(last + 1);
  }
  if (s == "-0") s = "0";
  return s;
}

std::string format_double_exact(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0.0 ? "inf" : "-inf";
  char buf[64];
  // 15 digits suffice for most values; some need 16 or 17 to survive the
  // decimal round trip bit-exactly.
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(begin, &end);
  if (end != begin + text.size()) return false;
  // ERANGE with an infinite result is overflow; with a tiny one it is
  // underflow, and v already holds the nearest subnormal (or zero).
  if (errno == ERANGE && std::isinf(v)) return false;
  out = v;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t acc = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (acc > (UINT64_MAX - digit) / 10) return false;  // overflow
    acc = acc * 10 + digit;
  }
  out = acc;
  return true;
}

bool parse_count(const std::string& text, std::uint64_t max,
                 std::uint64_t& out) {
  std::uint64_t n = 0;
  if (!parse_u64(text, n)) {
    if (text.empty()) return false;
    const char* begin = text.c_str();
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    // 2^64 is the first double the cast below could not represent; the
    // negated comparison also rejects NaN.
    if (end != begin + text.size() || !(v >= 0.0) ||
        v >= 18446744073709551616.0) {
      return false;
    }
    n = static_cast<std::uint64_t>(v);
  }
  if (n > max) return false;
  out = n;
  return true;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace stayaway
