// Scenario files: a small key = value format describing an experiment,
// consumed by the stayaway_sim command-line tool (tools/). Lets a user
// run co-location studies without writing C++. Every key is declared
// once, in a two-way field walk per section (scenario_file.cpp: the
// fleet-level `workers`, the base/[host] body, [cluster]); the same walk
// reads a line and writes the canonical form, so reader and writer
// cannot drift apart.
//
//   # VLC protected from the Twitter analytics job
//   sensitive   = vlc-stream
//   batch       = twitter-analysis
//   policy      = stay-away
//   duration_s  = 300
//   workload    = diurnal
//   compare     = true          # also run no-prevention + isolated
//   template_out = vlc.template.csv
//
// Optional robustness keys (DESIGN.md §12):
//   metrics    = cpu,mem,io          # sampler metric set
//   vm         = extra1:cpubomb:30   # extra named batch VM (repeatable)
//   fault_seed = 7                   # fault plan seed (default: seed)
//   fault      = sensor-dropout start=20 end=60 p=0.2   # repeatable
//
// Multi-host fleet scenarios (DESIGN.md §13) add `[host "name"]`
// sections and the fleet-level `workers` key. Keys before the first
// section form the base scenario every host inherits; a section's keys
// overlay it (scalar keys override, the list-building `vm`/`fault` keys
// append):
//
//   sensitive = vlc-stream
//   policy    = stay-away
//   workers   = 4
//   [host "web-a"]
//   batch = twitter-analysis
//   [host "web-b"]
//   batch = cpubomb
//   seed  = 7
//
// Cluster coordination (DESIGN.md §18) adds a `[cluster]` section to a
// multi-host document — coordinator knobs plus the repeatable `mobile`
// (migratable batch VM: name:kind:home[:start_s]) and `admit` (incoming
// batch VM: name:kind:arrival_s) keys:
//
//   [cluster]
//   migrate = true
//   admit_margin = 0.25
//   mobile = crunch:cpubomb:web-a:20
//   admit  = late:soplex:90
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fleet.hpp"

namespace stayaway::harness {

/// Enum lookups (throw PreconditionError on unknown names).
SensitiveKind sensitive_kind_from_string(const std::string& name);
BatchKind batch_kind_from_string(const std::string& name);
PolicyKind policy_kind_from_string(const std::string& name);

struct Scenario {
  ExperimentSpec spec;
  /// Workload kind as written ("constant" or "diurnal"); spec.workload
  /// holds the trace it materialized into. Retained so serialization
  /// round-trips — same kind + cycles + seed + duration regenerates the
  /// identical trace.
  std::string workload = "constant";
  /// Diurnal load cycles over the run; the reader rejects more than one
  /// per control period (duration_s / period_s).
  double workload_cycles = 1.5;
  /// Also run the no-prevention and isolated references and report the
  /// gained utilization / violation comparison.
  bool compare = false;
  /// Load a template before the run / save the learned one after.
  std::optional<std::string> template_in;
  std::optional<std::string> template_out;
  /// Dump the per-period series to this CSV path.
  std::optional<std::string> series_csv;
};

/// A parsed multi-host scenario document.
struct FleetScenario {
  /// The keys before any [host] section — on its own a complete,
  /// runnable single-host scenario.
  Scenario base;
  /// Per-host overlays in file order: (section name, base scenario with
  /// the section's overrides applied). Empty for plain documents.
  std::vector<std::pair<std::string, Scenario>> hosts;
  /// Fleet-level `workers` key (hosts driven concurrently).
  std::size_t workers = 1;
  /// Parsed [cluster] section (DESIGN.md §18); nullopt without one. Only
  /// valid alongside [host] sections.
  std::optional<ClusterSpec> cluster;
  /// True when the document used any fleet syntax ([host] or [cluster]
  /// sections or the workers key), even for a degenerate fleet of one.
  bool fleet_syntax = false;
};

/// Parses a scenario document, plain or fleet (see the header comment
/// for the syntax). Unknown keys, malformed lines, invalid values,
/// duplicate VM names and unknown fault/metric kinds throw
/// PreconditionError naming the offending line once. Empty lines and '#'
/// comments are ignored ('#' inside a quoted value is literal); a key may
/// appear at most once per section, except the list-building `vm`,
/// `fault`, `mobile` and `admit` keys. Values may be double-quoted
/// ("a # b") with \\ \" \n \t \r escapes — required when a value
/// contains '#', a quote, or significant leading/trailing whitespace.
/// Section names must be unique, non-empty and free of quotes; plain
/// documents parse with hosts empty and fleet_syntax false.
FleetScenario parse_fleet_scenario(std::istream& in);

/// Canonical scenario-document form: every spec scalar written
/// explicitly with exact-round-trip numbers, values quoted when they need
/// it, keys in the order the field walks declare them. Fleet documents
/// start with the workers key and write every host as a fully expanded
/// [host "name"] section (no inherited base keys — overlay ordering
/// cannot change what a section means); a document without fleet syntax
/// is its base body alone. serialize ∘ parse is a fixed point, and the
/// bytes are pinned (ScenarioGolden in tests/test_scenario_file.cpp): the
/// run-log recorder (DESIGN.md §14) embeds scenarios through this.
std::string serialize_fleet_scenario(const FleetScenario& fleet);

}  // namespace stayaway::harness
