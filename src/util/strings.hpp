// Small string/number formatting helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stayaway {

/// Formats v with fixed precision, trimming trailing zeros ("1.5", "0.001").
std::string format_double(double v, int precision);

/// Shortest %g form of v that strtod parses back to the identical value
/// ("0.1", not "0.100000000000000006"); "inf"/"-inf"/"nan" for the
/// non-finite values. The exact round-trip is what record/replay's
/// byte-diff guarantee rests on (DESIGN.md §14).
std::string format_double_exact(double v);

/// Parses the whole of text as a strtod double into out ("1.5", "2e-3",
/// "inf", "nan"); false when text is empty, has leading or trailing
/// characters, or overflows ("1e400"). Underflow is accepted, so every
/// subnormal format_double_exact writes parses back to itself.
bool parse_double(const std::string& text, double& out);

/// Parses a full plain decimal u64 into out; false when text has signs,
/// spaces, trailing characters or overflows. Seeds must go through this
/// rather than a double parse — a 64-bit seed truncates above 2^53.
bool parse_u64(const std::string& text, std::uint64_t& out);

/// Parses a count into out: plain decimal over the full u64 range, or
/// any strtod form ("1e6"; a fraction truncates toward zero) for
/// hand-written configs. False when text is malformed, NaN, infinite,
/// negative or above max — the check that keeps the integer cast
/// defined.
bool parse_count(const std::string& text, std::uint64_t max,
                 std::uint64_t& out);

/// Left-pads s with spaces to the given width.
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads s with spaces to the given width.
std::string pad_right(const std::string& s, std::size_t width);

/// Joins parts with the given separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace stayaway
