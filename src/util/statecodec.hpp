// Two-way typed key/value line codec for component state snapshots
// (DESIGN.md §17). A checkpointable component describes its layout once,
// in a single `state(util::StateIO&)` function: a StateIO built on an
// ostream saves (each field call emits `key = value`), one built on an
// istream loads (each field call checks that `key` comes next and
// assigns the value through the reference it was handed). Save and load
// therefore cannot drift apart; the versioned, checksummed framing
// around a body lives in util/envelope.hpp.
//
// Format: one `key = value` line per field in a fixed order — a loading
// StateIO fails loudly on any missing, reordered or malformed field.
// Doubles use format_double_exact, making save→load the identity on
// every value including the non-finite ones; that exactness is what the
// crash/restore byte-identity guarantee rests on.
//
// Load-side checks (enum ranges, wiring and count matches, cross-field
// lengths, rebuilt caches) live in the state function itself, either in
// an `if (io.loading())` block or in one of the helpers below
// (enumeration's maximum, expect's fixed value).
//
// Precondition for loading: a load that throws StateCodecError may
// leave the component half-assigned (fields are assigned as they are
// read). Every caller therefore loads into a freshly built object and
// discards it on failure — the supervisor rebuilds the host before each
// restore attempt, and `--restore` aborts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace stayaway {
class Rng;
}  // namespace stayaway

namespace stayaway::util {

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "size_t counters bind directly to StateIO::u64");

/// Thrown on any malformed, truncated or out-of-order snapshot field.
class StateCodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class StateIO {
 public:
  /// Saving: every field call writes its value to `out`.
  explicit StateIO(std::ostream& out) : out_(&out) {}
  /// Loading: every field call reads its value from `in`.
  explicit StateIO(std::istream& in) : in_(&in) {}

  bool loading() const { return in_ != nullptr; }

  /// size_t counters and VmIds bind here directly (see the static_assert).
  void u64(std::string_view key, std::uint64_t& v);
  void boolean(std::string_view key, bool& v);
  void real(std::string_view key, double& v);
  /// Free-form single-line text; internal spaces allowed. Newlines are a
  /// caller bug.
  void line(std::string_view key, std::string& v);
  /// `<n> <x0> <x1> ...` on one line.
  void reals(std::string_view key, std::vector<double>& v);
  void u64s(std::string_view key, std::vector<std::uint64_t>& v);
  /// Any other container of integers or bools (vector<bool> flags, ...),
  /// converted element-wise through the same line.
  template <typename C>
  void u64s(std::string_view key, C& c) {
    std::vector<std::uint64_t> wide;
    if (!loading()) wide.assign(c.begin(), c.end());
    u64s(key, wide);
    if (loading()) c.assign(wide.begin(), wide.end());
  }
  /// The engine of an Rng in mt19937_64's stream form: save→load is the
  /// identity, so a restored Rng emits the exact draw sequence the
  /// original would have. Safe because every Rng distribution helper
  /// builds its std:: distribution fresh per call — the engine is the
  /// only state an Rng has.
  void rng(std::string_view key, Rng& engine);

  /// An enum stored as its integer value; a load above `max` throws.
  template <typename E>
  void enumeration(std::string_view key, E& v, E max) {
    auto raw = static_cast<std::uint64_t>(v);
    u64(key, raw);
    if (!loading()) return;
    if (raw > static_cast<std::uint64_t>(max)) out_of_range(key);
    v = static_cast<E>(raw);
  }

  /// A presence flag under `has_key`, then — when present — the fields
  /// `fields(T&)` describes. Loading resets or default-constructs `v`
  /// first.
  template <typename T, typename F>
  void optional(std::string_view has_key, std::optional<T>& v, F&& fields) {
    bool present = v.has_value();
    boolean(has_key, present);
    if (loading()) {
      v.reset();
      if (present) v.emplace();
    }
    if (present) fields(*v);
  }

  /// A count under `count_key`, then one `element(item&)` per item.
  /// Loading clears `seq` and appends items one at a time: the count read
  /// from the snapshot never sizes an allocation, so a forged count fails
  /// at the first missing field instead of exhausting memory.
  template <typename Seq, typename F>
  void sequence(std::string_view count_key, Seq& seq, F&& element) {
    std::uint64_t n = seq.size();
    u64(count_key, n);
    if (!loading()) {
      for (auto& item : seq) element(item);
      return;
    }
    seq.clear();
    for (std::uint64_t i = 0; i < n; ++i) element(seq.emplace_back());
  }

  /// A field whose value the loader already knows (wiring, counts,
  /// names): saving writes `actual`, loading throws StateCodecError with
  /// `what` unless the stored value equals it.
  void expect(std::string_view key, bool actual, std::string_view what);
  void expect(std::string_view key, std::uint64_t actual,
              std::string_view what);
  void expect(std::string_view key, const std::string& actual,
              std::string_view what);

  /// Loading: throws StateCodecError unless the body is fully consumed.
  /// No-op when saving.
  void expect_end(std::string_view what);

 private:
  void emit(std::string_view key, std::string_view value);
  /// Next `key = value` line; throws unless the key matches exactly.
  std::string next_value(std::string_view key);
  [[noreturn]] static void out_of_range(std::string_view key);

  std::ostream* out_ = nullptr;
  std::istream* in_ = nullptr;
};

/// Exact double parse accepting format_double_exact's full range
/// ("inf", "-inf", "nan"); throws StateCodecError on anything else.
double parse_exact_double(const std::string& text, std::string_view what);

}  // namespace stayaway::util
