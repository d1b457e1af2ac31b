#include "harness/scenario_file.hpp"

#include <cmath>
#include <cstdint>
#include <istream>
#include <set>
#include <type_traits>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace stayaway::harness {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw PreconditionError(message);
}

std::string trim(const std::string& s) {
  auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Splits `value` at every `sep`, trimming each part.
std::vector<std::string> split_trimmed(const std::string& value, char sep) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    auto c = value.find(sep, pos);
    parts.push_back(trim(
        value.substr(pos, c == std::string::npos ? std::string::npos
                                                 : c - pos)));
    if (c == std::string::npos) break;
    pos = c + 1;
  }
  return parts;
}

/// Truncates `line` at the first '#' that is not inside a double-quoted
/// region. Inside quotes a backslash escapes the next character, so
/// `path = "a\"# b"` keeps its '#'.
std::string strip_comment(const std::string& line) {
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes && c == '\\' && i + 1 < line.size()) {
      ++i;  // escaped character, never a delimiter
      continue;
    }
    if (c == '"') in_quotes = !in_quotes;
    if (c == '#' && !in_quotes) return line.substr(0, i);
  }
  return line;
}

/// Decodes a double-quoted value (`"a # b"`, escapes \\ \" \n \t \r).
/// Values not starting with a quote pass through untouched.
std::string unquote_value(const std::string& value) {
  if (value.empty() || value.front() != '"') return value;
  std::string out;
  std::size_t i = 1;
  for (; i < value.size(); ++i) {
    char c = value[i];
    if (c == '"') {
      if (i + 1 != value.size()) {
        fail("trailing characters after closing quote");
      }
      return out;
    }
    if (c == '\\') {
      if (i + 1 == value.size()) fail("dangling escape in string");
      char esc = value[++i];
      switch (esc) {
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default:
          fail(std::string("unknown escape '\\") + esc + "'");
      }
      continue;
    }
    out += c;
  }
  fail("unterminated quoted string");
}

bool needs_quoting(const std::string& s) {
  if (s.empty()) return true;
  if (s.front() == '"' || s.front() == ' ' || s.back() == ' ') return true;
  return s.find_first_of("#\\\"\n\t\r") != std::string::npos;
}

std::string quote_value(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string maybe_quote(const std::string& s) {
  return needs_quoting(s) ? quote_value(s) : s;
}

// Value codecs, one overload pair per field type: text(v) renders a
// value, read(text, v) parses one back. Read errors are untagged: the
// document loop names the line once.

std::string text(double v) { return format_double_exact(v); }
void read(const std::string& t, double& v) {
  if (!parse_double(t, v)) fail("expected a number, got '" + t + "'");
}

/// Every integer-valued key (counts and seeds) parses through here, so
/// `nan`, `-1` or `1e300` fail on their line instead of reaching an
/// undefined float-to-integer cast. Plain decimal covers the full 64-bit
/// range; forms like `seed = 1e6` keep working but round above 2^53 —
/// recorded scenarios always use the exact decimal form.
std::string text(std::uint64_t v) { return std::to_string(v); }
void read(const std::string& t, std::uint64_t& v) {
  if (!parse_count(t, UINT64_MAX, v)) {
    fail("expected a finite, non-negative, in-range count, got '" + t + "'");
  }
}

std::string text(bool v) { return v ? "true" : "false"; }
void read(const std::string& t, bool& v) {
  v = t == "true" || t == "yes" || t == "1";
  if (!v && t != "false" && t != "no" && t != "0") {
    fail("expected true/false, got '" + t + "'");
  }
}

std::string text(const std::string& v) { return v; }
void read(const std::string& t, std::string& v) { v = t; }

template <typename T>
std::string text(const std::optional<T>& v) {
  return text(*v);
}
template <typename T>
void read(const std::string& t, std::optional<T>& v) {
  read(t, v.emplace());
}

/// The app and policy kinds, by their to_string names.
template <typename E>
  requires std::is_enum_v<E>
std::string text(E v) {
  return to_string(v);
}
void read(const std::string& t, SensitiveKind& v) {
  v = sensitive_kind_from_string(t);
}
void read(const std::string& t, BatchKind& v) { v = batch_kind_from_string(t); }
void read(const std::string& t, PolicyKind& v) {
  v = policy_kind_from_string(t);
}

std::string text(core::IngestSource v) {
  return v == core::IngestSource::Ring ? "ring" : "sync";
}
void read(const std::string& t, core::IngestSource& v) {
  if (t != "sync" && t != "ring") {
    fail("expected 'sync' or 'ring', got '" + t + "'");
  }
  v = t == "ring" ? core::IngestSource::Ring : core::IngestSource::Synchronous;
}

/// A comma-separated sampler metric set: `cpu,mem,io`.
std::string text(const std::vector<monitor::MetricKind>& metrics) {
  std::vector<std::string> names;
  for (monitor::MetricKind m : metrics) names.emplace_back(to_string(m));
  return join(names, ",");
}
void read(const std::string& t, std::vector<monitor::MetricKind>& metrics) {
  metrics.clear();
  for (const std::string& name : split_trimmed(t, ',')) {
    metrics.push_back(monitor::metric_kind_from_string(name));
  }
}

std::string text(const sim::FaultSpec& f) { return sim::to_spec_string(f); }
void read(const std::string& t, sim::FaultSpec& f) {
  f = sim::parse_fault_spec(t);
}

/// Splits a colon-separated VM value, `name:kind[:...]`, into trimmed
/// parts and reads its head: between `min` and `max` parts (else the
/// `syntax` is quoted back), a non-empty name, a batch kind other than
/// none.
std::vector<std::string> vm_parts(const std::string& t, std::size_t min,
                                  std::size_t max, const char* syntax,
                                  std::string& name, BatchKind& kind) {
  std::vector<std::string> parts = split_trimmed(t, ':');
  if (parts.size() < min || parts.size() > max) {
    fail(std::string("expected '") + syntax + "', got '" + t + "'");
  }
  name = parts[0];
  if (name.empty()) fail("empty VM name");
  read(parts[1], kind);
  if (kind == BatchKind::None) fail("VM kind must not be 'none'");
  return parts;
}

/// A start or arrival time inside a VM value.
double time_value(const std::string& t) {
  double v = 0.0;
  read(t, v);
  if (!(v >= 0.0)) fail("times must be >= 0, got " + t);
  return v;
}

/// `name:kind[:start_s]`: an extra named batch VM.
std::string text(const ExtraVmSpec& vm) {
  return vm.name + ":" + text(vm.kind) + ":" + text(vm.start_s);
}
void read(const std::string& t, ExtraVmSpec& vm) {
  auto parts = vm_parts(t, 2, 3, "name:kind[:start_s]", vm.name, vm.kind);
  if (parts.size() == 3) vm.start_s = time_value(parts[2]);
}

/// `name:kind:home[:start_s]`: a migratable batch VM.
std::string text(const MobileVmSpec& m) {
  return m.name + ":" + text(m.kind) + ":" + m.home + ":" + text(m.start_s);
}
void read(const std::string& t, MobileVmSpec& m) {
  auto parts = vm_parts(t, 3, 4, "name:kind:home[:start_s]", m.name, m.kind);
  m.home = parts[2];
  if (m.home.empty()) fail("empty home host name");
  if (parts.size() == 4) m.start_s = time_value(parts[3]);
}

/// `name:kind:arrival_s`: an incoming batch VM.
std::string text(const AdmissionSpec& a) {
  return a.name + ":" + text(a.kind) + ":" + text(a.arrival_s);
}
void read(const std::string& t, AdmissionSpec& a) {
  auto parts = vm_parts(t, 3, 3, "name:kind:arrival_s", a.name, a.kind);
  a.arrival_s = time_value(parts[2]);
}

/// Reading bookkeeping of one document section: the scalar keys it has
/// set (each at most once) and the VM names its lists declared.
struct SectionSeen {
  std::set<std::string> keys;
  std::set<std::string> vm_names;
};

/// Two-way walk over one section's fields, on the pattern of
/// util::StateIO: each section declares every key once, in a walk
/// function run with a writing or a reading FieldIO.
///
/// Writing, each field call appends `key = value` (quoted when the value
/// needs it), so the walk order is the canonical order. Reading, the
/// FieldIO holds one line's key and value, and the one field call whose
/// key matches reads the value into the reference it was handed. The
/// reader rejects an empty value, a second value for a scalar key of the
/// same section (list keys repeat) and a VM name the section already
/// declared.
class FieldIO {
 public:
  /// Writing: every field call appends its line to `out`.
  explicit FieldIO(std::string& out) : out_(&out) {}
  /// Reading: one `key = value` line of the section `seen` tracks.
  FieldIO(std::string key, const std::string& raw_value, SectionSeen& seen)
      : key_(std::move(key)), seen_(&seen) {
    if (raw_value.empty()) fail("empty value for '" + key_ + "'");
    value_ = unquote_value(raw_value);
  }

  /// Reading: whether a field call so far had this line's key.
  bool matched() const { return matched_; }

  /// A scalar key. Reading, `check` then validates the value read.
  template <typename T, typename Check = void (*)(const T&)>
  void field(const char* key, T& v, Check check = [](const T&) {}) {
    if (out_ != nullptr) {
      emit(key, text(v));
    } else if (claim(key, /*repeatable=*/false)) {
      read(value_, v);
      check(v);
    }
  }

  /// A repeatable key: one line per item; each line read appends one.
  template <typename T>
  void list(const char* key, std::vector<T>& items) {
    if (out_ != nullptr) {
      for (const T& item : items) emit(key, text(item));
    } else if (claim(key, /*repeatable=*/true)) {
      T item;
      read(value_, item);
      // VM specs: a name is declared once per section.
      if constexpr (requires { item.name; }) {
        if (!seen_->vm_names.insert(item.name).second) {
          fail("duplicate VM name '" + item.name + "'");
        }
      }
      items.push_back(std::move(item));
    }
  }

  /// Writes the group `fields` walks only when `emit` holds. Reading
  /// always walks it, so its keys are accepted whatever the condition.
  template <typename F>
  void when(bool emit, F&& fields) {
    if (out_ == nullptr || emit) fields();
  }

 private:
  bool claim(const char* key, bool repeatable) {
    if (key_ != key) return false;
    matched_ = true;
    if (!repeatable && !seen_->keys.insert(key_).second) {
      fail("duplicate key '" + key_ + "'");
    }
    return true;
  }

  void emit(const char* key, const std::string& value) {
    *out_ += key;
    *out_ += " = ";
    *out_ += maybe_quote(value);
    *out_ += '\n';
  }

  std::string* out_ = nullptr;
  std::string key_;
  std::string value_;
  SectionSeen* seen_ = nullptr;
  bool matched_ = false;
};

}  // namespace

SensitiveKind sensitive_kind_from_string(const std::string& name) {
  for (auto kind : {SensitiveKind::VlcStream, SensitiveKind::WebserviceCpu,
                    SensitiveKind::WebserviceMem, SensitiveKind::WebserviceMix,
                    SensitiveKind::VlcTranscode, SensitiveKind::FlashCrowd}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown sensitive app: " + name);
}

BatchKind batch_kind_from_string(const std::string& name) {
  for (auto kind : {BatchKind::None, BatchKind::CpuBomb, BatchKind::MemBomb,
                    BatchKind::Soplex, BatchKind::TwitterAnalysis,
                    BatchKind::VlcTranscode, BatchKind::Batch1,
                    BatchKind::Batch2}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown batch app: " + name);
}

PolicyKind policy_kind_from_string(const std::string& name) {
  for (auto kind : {PolicyKind::NoPrevention, PolicyKind::StayAway,
                    PolicyKind::Reactive, PolicyKind::StaticThreshold}) {
    if (name == to_string(kind)) return kind;
  }
  throw PreconditionError("unknown policy: " + name);
}

namespace {

/// One scenario body: the base document or one [host] section overlaying
/// it. Copyable: a host section starts from a copy of the base with a
/// fresh key set (inherited VM names stay reserved).
struct Body {
  Scenario scenario;
  /// The fault plan as written; finish() seeds it, since the default seed
  /// is the final `seed`.
  std::vector<sim::FaultSpec> faults;
  std::optional<std::uint64_t> fault_seed;
  SectionSeen seen;

  /// The walkable form of a parsed scenario, for writing.
  static Body of(const Scenario& scenario) {
    Body body;
    body.scenario = scenario;
    if (scenario.spec.faults.has_value()) {
      body.faults = scenario.spec.faults->faults;
      body.fault_seed = scenario.spec.faults->seed;
    }
    return body;
  }

  /// Applies the deferred workload/fault post-processing (both depend on
  /// the final seed/duration) and returns the finished scenario.
  Scenario finish() const {
    Scenario out = scenario;
    if (out.workload == "diurnal") {
      // The compressed trace holds 96 samples per cycle whatever the run
      // length, so the cycle count is bounded by the run's period count:
      // at most one load cycle per control period.
      const double periods = out.spec.duration_s / out.spec.period_s;
      if (out.workload_cycles > periods) {
        fail("workload_cycles = " + text(out.workload_cycles) +
             " exceeds duration_s / period_s = " + text(periods) +
             " (more than one load cycle per control period)");
      }
      out.spec.workload = compressed_diurnal(
          out.spec.duration_s, out.workload_cycles, out.spec.seed);
    }
    if (!faults.empty()) {
      // Fault schedules are always explicitly seeded (the lint rule
      // enforces the same for code): fault_seed when given, else the
      // experiment seed.
      sim::FaultPlan plan;
      plan.seed = fault_seed.value_or(out.spec.seed);
      plan.faults = faults;
      out.spec.faults = std::move(plan);
    }
    return out;
  }
};

/// The base and [host] section keys, in canonical order: every scalar
/// explicit (no reliance on defaults drifting), list keys in spec order,
/// the conditional groups only when they say something.
void body_fields(FieldIO& io, Body& body) {
  Scenario& s = body.scenario;
  ExperimentSpec& spec = s.spec;
  core::StayAwayConfig& sa = spec.stayaway;
  core::GovernorConfig& governor = sa.governor;
  io.field("sensitive", spec.sensitive);
  io.field("batch", spec.batch);
  io.field("policy", spec.policy);
  io.field("duration_s", spec.duration_s);
  io.field("period_s", spec.period_s);
  io.field("tick_s", spec.tick_s);
  io.field("batch_start_s", spec.batch_start_s);
  io.field("sensitive_start_s", spec.sensitive_start_s);
  io.field("seed", spec.seed);
  io.field("workload", s.workload, [](const std::string& w) {
    if (w != "constant" && w != "diurnal") {
      fail("expected 'constant' or 'diurnal', got '" + w + "'");
    }
  });
  io.field("workload_cycles", s.workload_cycles, [](double cycles) {
    if (!std::isfinite(cycles) || cycles <= 0.0) {
      fail("the cycle count must be finite and positive");
    }
  });
  io.field("dedup_epsilon", sa.dedup_epsilon);
  io.field("prediction_samples", sa.prediction_samples);
  io.field("beta_initial", governor.beta_initial);
  io.field("beta_increment", governor.beta_increment);
  io.field("beta_max", governor.beta_max);
  io.field("resume_grace_s", governor.resume_grace_s);
  io.field("starvation_patience_s", governor.starvation_patience_s);
  io.field("random_resume_probability", governor.random_resume_probability);
  io.field("actions_enabled", sa.actions_enabled);
  io.field("allow_sensitive_demotion", sa.allow_sensitive_demotion);
  io.field("aggregate_batch", sa.sampler.aggregate_batch);
  io.field("noise_fraction", sa.sampler.noise_fraction);
  io.field("metrics", sa.sampler.metrics);
  // Streaming ingestion (DESIGN.md §15), written only when it differs
  // from the default: historical scenarios (and the scenario text
  // embedded in committed run-logs) keep their exact canonical bytes.
  core::IngestConfig& ingest = sa.ingest;
  io.when(ingest != core::IngestConfig{}, [&] {
    io.field("ingest_source", ingest.source);
    io.field("ingest_rate_hz", ingest.rate_hz);
    io.field("ingest_ring_capacity", ingest.ring_capacity);
    io.field("ingest_lookahead_s", ingest.lookahead_s);
    io.field("ingest_burst_rate_hz", ingest.burst_rate_hz);
    io.field("ingest_burst_start_s", ingest.burst_start_s);
    io.field("ingest_burst_end_s", ingest.burst_end_s);
  });
  io.list("vm", spec.extra_batch);
  io.when(!body.faults.empty(), [&] {
    io.field("fault_seed", body.fault_seed);
    io.list("fault", body.faults);
  });
  io.when(s.compare, [&] { io.field("compare", s.compare); });
  io.when(s.template_in.has_value(),
          [&] { io.field("template_in", s.template_in); });
  io.when(s.template_out.has_value(),
          [&] { io.field("template_out", s.template_out); });
  io.when(s.series_csv.has_value(),
          [&] { io.field("series_csv", s.series_csv); });
}

/// The [cluster] section (DESIGN.md §18): every coordinator knob, then
/// the mobile and admitted VMs in spec order. ClusterSpec::restore is
/// runtime-only state and never written.
void cluster_fields(FieldIO& io, ClusterSpec& cluster) {
  core::cluster::ClusterConfig& config = cluster.config;
  io.field("migrate", config.migrate);
  io.field("admit_margin", config.admit_margin);
  io.field("admit_patience", config.admit_patience);
  io.field("migration_cooldown", config.migration_cooldown);
  io.field("admit_footprint", config.admit_footprint);
  io.list("mobile", cluster.mobile);
  io.list("admit", cluster.admissions);
}

/// The fleet-level keys: set before any section, written first.
void fleet_fields(FieldIO& io, std::size_t& workers) {
  io.field("workers", workers, [](std::size_t n) {
    if (n < 1) fail("the worker count must be >= 1");
  });
}

constexpr const char* kClusterSection = "cluster";

/// The name in a `host "name"` section header (brackets stripped). Names
/// are written back inside quotes, so they may not hold one.
std::string host_name(const std::string& header) {
  if (header.rfind("host", 0) != 0) {
    fail("unknown section '" + header +
         "' (expected [host \"name\"] or [cluster])");
  }
  std::string rest = trim(header.substr(4));
  if (rest.size() < 2 || rest.front() != '"' || rest.back() != '"') {
    fail("host name must be quoted: [host \"name\"]");
  }
  std::string name = rest.substr(1, rest.size() - 2);
  if (name.empty()) fail("host name must not be empty");
  if (name.find('"') != std::string::npos) {
    fail("host name must not contain a quote");
  }
  return name;
}

}  // namespace

FleetScenario parse_fleet_scenario(std::istream& in) {
  FleetScenario fleet;
  Body base;
  // Host bodies overlay a snapshot of the base taken at their section
  // header; the last one is the current section.
  std::vector<std::pair<std::string, Body>> hosts;
  std::set<std::string> host_names;
  enum class Section { Base, Host, Cluster } section = Section::Base;
  SectionSeen cluster_seen;

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    try {
      std::string line = trim(strip_comment(raw));
      // getline leaving eofbit set means the stream ran dry before the
      // delimiter: the final line lost its newline. A scenario truncated
      // mid-line (half a `key = value`) must not parse as a shorter but
      // valid scenario; an unterminated blank or comment line is harmless.
      if (in.eof() && !line.empty()) {
        fail("truncated scenario: final line '" + line +
             "' is missing its newline");
      }
      if (line.empty()) continue;

      if (line.front() == '[') {
        if (line.back() != ']') fail("unterminated section header");
        std::string header = trim(line.substr(1, line.size() - 2));
        fleet.fleet_syntax = true;
        if (header == kClusterSection) {
          if (fleet.cluster.has_value()) fail("duplicate [cluster] section");
          fleet.cluster.emplace();
          section = Section::Cluster;
          continue;
        }
        std::string name = host_name(header);
        if (!host_names.insert(name).second) {
          fail("duplicate host section '" + name + "'");
        }
        Body host = base;
        host.seen.keys.clear();
        hosts.emplace_back(std::move(name), std::move(host));
        section = Section::Host;
        continue;
      }

      auto eq = line.find('=');
      if (eq == std::string::npos) fail("expected 'key = value'");
      std::string key = trim(line.substr(0, eq));
      if (key.empty()) fail("empty key");
      Body& body = section == Section::Host ? hosts.back().second : base;
      FieldIO io(key, trim(line.substr(eq + 1)),
                 section == Section::Cluster ? cluster_seen : body.seen);
      fleet_fields(io, fleet.workers);
      if (io.matched()) {
        if (section != Section::Base) {
          fail("'" + key + "' is a fleet-level key; set it before any [host] " +
               "or [cluster] section");
        }
        fleet.fleet_syntax = true;
        continue;
      }
      if (section == Section::Cluster) {
        cluster_fields(io, *fleet.cluster);
      } else {
        body_fields(io, body);
      }
      if (!io.matched()) {
        fail((section == Section::Cluster ? "unknown [cluster] key '"
                                          : "unknown key '") +
             key + "'");
      }
    } catch (const PreconditionError& e) {
      fail("scenario line " + std::to_string(line_no) + ": " + e.what());
    }
  }

  if (fleet.cluster.has_value()) {
    if (hosts.empty()) {
      fail("a [cluster] section requires explicit [host] sections");
    }
    for (const MobileVmSpec& m : fleet.cluster->mobile) {
      if (host_names.find(m.home) == host_names.end()) {
        fail("mobile VM '" + m.name + "' names an unknown home host: " +
             m.home);
      }
    }
  }
  fleet.base = base.finish();
  fleet.hosts.reserve(hosts.size());
  for (const auto& [name, body] : hosts) {
    fleet.hosts.emplace_back(name, body.finish());
  }
  return fleet;
}

std::string serialize_fleet_scenario(const FleetScenario& fleet) {
  std::string out;
  FieldIO io(out);
  auto write_body = [&io](const Scenario& scenario) {
    Body body = Body::of(scenario);
    body_fields(io, body);
  };
  if (!fleet.fleet_syntax) {
    write_body(fleet.base);
    return out;
  }
  std::size_t workers = fleet.workers;
  fleet_fields(io, workers);
  if (fleet.cluster.has_value()) {
    out += std::string("[") + kClusterSection + "]\n";
    ClusterSpec cluster = *fleet.cluster;
    cluster_fields(io, cluster);
  }
  if (fleet.hosts.empty()) {
    // Degenerate fleet syntax (workers key only): the base body is the
    // single host.
    write_body(fleet.base);
    return out;
  }
  // Hosts are emitted fully expanded with no shared base body, so the
  // overlay order of the original document cannot change what a section
  // means when the canonical form is reparsed.
  for (const auto& [name, scenario] : fleet.hosts) {
    SA_REQUIRE(name.find('"') == std::string::npos &&
                   name.find('\n') == std::string::npos,
               "host names with quotes or newlines cannot be serialized");
    out += "[host \"" + name + "\"]\n";
    write_body(scenario);
  }
  return out;
}

}  // namespace stayaway::harness
