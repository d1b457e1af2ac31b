#include "core/period.hpp"

#include <sstream>
#include <string_view>

#include "util/check.hpp"
#include "util/statecodec.hpp"
#include "util/strings.hpp"

namespace stayaway::core {

namespace {

[[noreturn]] void malformed(const std::string& detail) {
  throw PreconditionError("period record: " + detail);
}

/// Walks a record line token by token. The field order is part of the
/// format: every key is checked as it is consumed, so two encodings of
/// one record cannot exist.
class FieldReader {
 public:
  explicit FieldReader(const std::string& line) : in_(line) { advance(); }

  /// Does the next token carry `key`? Lets the parser dispatch on the
  /// optional trailing blocks (ingest, cluster).
  bool at(std::string_view key) const {
    return has_next_ && next_.size() > key.size() &&
           next_[key.size()] == '=' && next_.compare(0, key.size(), key) == 0;
  }

  double real(std::string_view key) {
    std::string v = take(key);
    try {
      return util::parse_exact_double(v, key);
    } catch (const util::StateCodecError& e) {
      malformed(e.what());
    }
  }

  std::size_t count(std::string_view key) {
    std::string v = take(key);
    std::uint64_t out = 0;
    if (!parse_u64(v, out)) {
      malformed("field '" + std::string(key) +
                "' expected an unsigned integer, got '" + v + "'");
    }
    return static_cast<std::size_t>(out);
  }

  bool flag(std::string_view key) {
    std::string v = take(key);
    if (v == "1") return true;
    if (v == "0") return false;
    malformed("field '" + std::string(key) + "' expected 0/1, got '" + v +
              "'");
  }

  void finish() const {
    if (has_next_) malformed("trailing token '" + next_ + "'");
  }

 private:
  std::string take(std::string_view key) {
    if (!has_next_) {
      malformed("truncated before field '" + std::string(key) + "'");
    }
    if (!at(key)) {
      malformed("expected field '" + std::string(key) + "', got '" + next_ +
                "'");
    }
    std::string value = next_.substr(key.size() + 1);
    advance();
    return value;
  }

  void advance() { has_next_ = static_cast<bool>(in_ >> next_); }

  std::istringstream in_;
  std::string next_;
  bool has_next_ = false;
};

}  // namespace

std::string serialize_period_record(const PeriodRecord& rec) {
  std::string out;
  auto field = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  auto num = [&field](const char* key, double v) {
    field(key, format_double_exact(v));
  };
  auto count = [&field](const char* key, std::size_t v) {
    field(key, std::to_string(v));
  };
  auto flag = [&field](const char* key, bool v) { field(key, v ? "1" : "0"); };
  num("t", rec.time);
  count("mode", static_cast<std::size_t>(rec.mode));
  num("x", rec.state.x);
  num("y", rec.state.y);
  count("rep", rec.representative);
  flag("newrep", rec.new_representative);
  flag("vobs", rec.violation_observed);
  flag("vpred", rec.violation_predicted);
  flag("model", rec.model_ready);
  count("act", static_cast<std::size_t>(rec.action));
  flag("paused", rec.batch_paused_after);
  num("stress", rec.stress);
  num("beta", rec.beta);
  count("deg", static_cast<std::size_t>(rec.degradation));
  count("qdims", rec.quarantined_dims);
  count("stale", rec.max_staleness);
  flag("qosvis", rec.qos_visible);
  count("retries", rec.actuation_retries);
  flag("pending", rec.actuation_pending);
  // Optional trailing blocks, each all-or-nothing: emitted only when any
  // of their fields is non-zero, so a synchronous-source, coordinator-free
  // record keeps its historical byte encoding.
  if (rec.ingest_any()) {
    count("ing", rec.samples_ingested);
    count("late", rec.late_samples);
    count("dup", rec.duplicate_samples);
    count("ovf", rec.overflow_drops);
  }
  if (rec.cluster_any()) {
    count("migout", rec.migrations_out);
    count("migin", rec.migrations_in);
  }
  return out;
}

PeriodRecord parse_period_record(const std::string& line) {
  FieldReader f(line);
  PeriodRecord rec;
  rec.time = f.real("t");
  std::size_t mode = f.count("mode");
  if (mode >= monitor::kExecutionModeCount) {
    malformed("execution mode out of range");
  }
  rec.mode = static_cast<monitor::ExecutionMode>(mode);
  rec.state.x = f.real("x");
  rec.state.y = f.real("y");
  rec.representative = f.count("rep");
  rec.new_representative = f.flag("newrep");
  rec.violation_observed = f.flag("vobs");
  rec.violation_predicted = f.flag("vpred");
  rec.model_ready = f.flag("model");
  std::size_t act = f.count("act");
  if (act > static_cast<std::size_t>(ThrottleAction::Resume)) {
    malformed("throttle action out of range");
  }
  rec.action = static_cast<ThrottleAction>(act);
  rec.batch_paused_after = f.flag("paused");
  rec.stress = f.real("stress");
  rec.beta = f.real("beta");
  std::size_t deg = f.count("deg");
  if (deg > static_cast<std::size_t>(DegradationState::Failsafe)) {
    malformed("degradation state out of range");
  }
  rec.degradation = static_cast<DegradationState>(deg);
  rec.quarantined_dims = f.count("qdims");
  rec.max_staleness = f.count("stale");
  rec.qos_visible = f.flag("qosvis");
  rec.actuation_retries = f.count("retries");
  rec.actuation_pending = f.flag("pending");
  if (f.at("ing")) {
    rec.samples_ingested = f.count("ing");
    rec.late_samples = f.count("late");
    rec.duplicate_samples = f.count("dup");
    rec.overflow_drops = f.count("ovf");
  }
  if (f.at("migout")) {
    rec.migrations_out = f.count("migout");
    rec.migrations_in = f.count("migin");
  }
  f.finish();
  return rec;
}

}  // namespace stayaway::core
