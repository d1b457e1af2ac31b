// Tests for the scenario-file parser behind the stayaway_sim CLI tool.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "harness/scenario_file.hpp"
#include "monitor/measurement.hpp"
#include "replay/run_log.hpp"
#include "sim/faults.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stayaway::harness {
namespace {

FleetScenario parse_fleet(const std::string& text) {
  std::istringstream in(text);
  return parse_fleet_scenario(in);
}

/// A plain (single-host) document: its base body.
Scenario parse(const std::string& text) {
  FleetScenario doc = parse_fleet(text);
  EXPECT_FALSE(doc.fleet_syntax) << text;
  return doc.base;
}

/// The canonical form of a plain document.
std::string serialize(const Scenario& scenario) {
  FleetScenario doc;
  doc.base = scenario;
  return serialize_fleet_scenario(doc);
}

TEST(ScenarioFile, DefaultsWhenEmpty) {
  Scenario s = parse("");
  EXPECT_EQ(s.spec.sensitive, SensitiveKind::VlcStream);
  EXPECT_EQ(s.spec.policy, PolicyKind::StayAway);
  EXPECT_FALSE(s.compare);
  EXPECT_FALSE(s.spec.workload.has_value());
  EXPECT_FALSE(s.template_in.has_value());
}

TEST(ScenarioFile, ParsesFullScenario) {
  Scenario s = parse(R"(
    # a comment
    sensitive = webservice-mem
    batch     = membomb
    policy    = reactive
    duration_s = 120
    period_s   = 0.5
    batch_start_s = 10
    seed       = 7
    workload   = diurnal
    workload_cycles = 2
    compare    = true
    template_out = out.csv
    series_csv   = series.csv
  )");
  EXPECT_EQ(s.spec.sensitive, SensitiveKind::WebserviceMem);
  EXPECT_EQ(s.spec.batch, BatchKind::MemBomb);
  EXPECT_EQ(s.spec.policy, PolicyKind::Reactive);
  EXPECT_DOUBLE_EQ(s.spec.duration_s, 120.0);
  EXPECT_DOUBLE_EQ(s.spec.period_s, 0.5);
  EXPECT_EQ(s.spec.seed, 7u);
  EXPECT_TRUE(s.spec.workload.has_value());
  EXPECT_NEAR(s.spec.workload->duration(), 120.0, 1.0);
  EXPECT_TRUE(s.compare);
  EXPECT_EQ(*s.template_out, "out.csv");
  EXPECT_EQ(*s.series_csv, "series.csv");
}

TEST(ScenarioFile, StayAwayTuningKeys) {
  Scenario s = parse(R"(
    dedup_epsilon = 0.08
    prediction_samples = 9
    beta_initial = 0.02
    actions_enabled = false
    allow_sensitive_demotion = true
    aggregate_batch = false
    noise_fraction = 0.05
  )");
  EXPECT_DOUBLE_EQ(s.spec.stayaway.dedup_epsilon, 0.08);
  EXPECT_EQ(s.spec.stayaway.prediction_samples, 9u);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_initial, 0.02);
  EXPECT_FALSE(s.spec.stayaway.actions_enabled);
  EXPECT_TRUE(s.spec.stayaway.allow_sensitive_demotion);
  EXPECT_FALSE(s.spec.stayaway.sampler.aggregate_batch);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.sampler.noise_fraction, 0.05);
}

TEST(ScenarioFile, InlineCommentsAndWhitespace) {
  Scenario s = parse("  batch =  cpubomb   # the worst case\n");
  EXPECT_EQ(s.spec.batch, BatchKind::CpuBomb);
}

TEST(ScenarioFile, ErrorsNameTheLine) {
  try {
    parse("sensitive = vlc-stream\nbatch = frobnicator\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos);
    EXPECT_NE(what.find("frobnicator"), std::string::npos);
  }
}

TEST(ScenarioFile, RejectsMalformedInput) {
  EXPECT_THROW(parse("just words\n"), PreconditionError);
  EXPECT_THROW(parse("= value\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s =\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s = fast\n"), PreconditionError);
  EXPECT_THROW(parse("duration_s = 10x\n"), PreconditionError);
  EXPECT_THROW(parse("compare = maybe\n"), PreconditionError);
  EXPECT_THROW(parse("workload = sinusoid\n"), PreconditionError);
  EXPECT_THROW(parse("unknown_key = 1\n"), PreconditionError);
}

TEST(ScenarioFile, RejectsDuplicateKeys) {
  EXPECT_THROW(parse("seed = 1\nseed = 2\n"), PreconditionError);
}

TEST(ScenarioFile, EnumLookupsRoundTripAllValues) {
  for (auto kind : {SensitiveKind::VlcStream, SensitiveKind::WebserviceCpu,
                    SensitiveKind::WebserviceMem, SensitiveKind::WebserviceMix,
                    SensitiveKind::VlcTranscode}) {
    EXPECT_EQ(sensitive_kind_from_string(to_string(kind)), kind);
  }
  for (auto kind : {BatchKind::None, BatchKind::CpuBomb, BatchKind::MemBomb,
                    BatchKind::Soplex, BatchKind::TwitterAnalysis,
                    BatchKind::VlcTranscode, BatchKind::Batch1,
                    BatchKind::Batch2}) {
    EXPECT_EQ(batch_kind_from_string(to_string(kind)), kind);
  }
  for (auto kind : {PolicyKind::NoPrevention, PolicyKind::StayAway,
                    PolicyKind::Reactive, PolicyKind::StaticThreshold}) {
    EXPECT_EQ(policy_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(sensitive_kind_from_string("nope"), PreconditionError);
  EXPECT_THROW(batch_kind_from_string("nope"), PreconditionError);
  EXPECT_THROW(policy_kind_from_string("nope"), PreconditionError);
}

TEST(ScenarioFile, ParsesMetricsVmAndFaultKeys) {
  Scenario s = parse(R"(
    metrics = cpu, mem ,io
    vm = extra1:cpubomb:30
    vm = extra2:membomb
    fault_seed = 9
    fault = sensor-dropout start=20 end=60 p=0.2
    fault = qos-blind start=30 end=45
  )");
  ASSERT_EQ(s.spec.stayaway.sampler.metrics.size(), 3u);
  EXPECT_EQ(s.spec.stayaway.sampler.metrics[0], monitor::MetricKind::Cpu);
  EXPECT_EQ(s.spec.stayaway.sampler.metrics[2], monitor::MetricKind::DiskIo);
  ASSERT_EQ(s.spec.extra_batch.size(), 2u);
  EXPECT_EQ(s.spec.extra_batch[0].name, "extra1");
  EXPECT_EQ(s.spec.extra_batch[0].kind, BatchKind::CpuBomb);
  EXPECT_DOUBLE_EQ(s.spec.extra_batch[0].start_s, 30.0);
  EXPECT_EQ(s.spec.extra_batch[1].name, "extra2");
  ASSERT_TRUE(s.spec.faults.has_value());
  EXPECT_EQ(s.spec.faults->seed, 9u);
  ASSERT_EQ(s.spec.faults->faults.size(), 2u);
  EXPECT_EQ(s.spec.faults->faults[0].kind, sim::FaultKind::SensorDropout);
}

TEST(ScenarioFile, FaultSeedDefaultsToExperimentSeed) {
  Scenario s = parse("seed = 17\nfault = qos-blind start=1 end=2\n");
  ASSERT_TRUE(s.spec.faults.has_value());
  EXPECT_EQ(s.spec.faults->seed, 17u);
}

TEST(ScenarioFile, DuplicateVmNameNamesTheLine) {
  try {
    parse("vm = extra:cpubomb\nvm = extra:membomb\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate VM name 'extra'"), std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, UnknownFaultKindNamesTheLine) {
  try {
    parse("seed = 1\nfault = cosmic-ray start=0 end=1\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown fault kind"), std::string::npos) << what;
  }
}

TEST(ScenarioFile, UnknownMetricKindNamesTheLine) {
  try {
    parse("metrics = cpu,flux\n");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown metric kind: flux"), std::string::npos)
        << what;
  }
}

TEST(ScenarioFile, RejectsMalformedVmAndMetricValues) {
  EXPECT_THROW(parse("vm = lonely-name\n"), PreconditionError);
  EXPECT_THROW(parse("vm = :cpubomb\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:none\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:cpubomb:-5\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:cpubomb:nan\n"), PreconditionError);
  EXPECT_THROW(parse("vm = extra:frobnicator\n"), PreconditionError);
  EXPECT_THROW(parse("metrics = cpu,,mem\n"), PreconditionError);
  // Repeating a non-list key is still rejected even though fault/vm repeat.
  EXPECT_THROW(parse("fault_seed = 1\nfault_seed = 2\n"), PreconditionError);
}

TEST(ScenarioFile, FaultLinesTakeTrailingComments) {
  // The scenario's fault keys are the one fault-plan syntax: a comment
  // after a spec and an open-ended window both parse.
  Scenario s = parse(R"(# comment
fault_seed = 9
fault = sensor-dropout start=20 end=60 p=0.2
fault = qos-blind start=30 end=45   # trailing comment
fault = pause-fail p=0.5
)");
  ASSERT_TRUE(s.spec.faults.has_value());
  EXPECT_EQ(s.spec.faults->seed, 9u);
  ASSERT_EQ(s.spec.faults->faults.size(), 3u);
  EXPECT_EQ(s.spec.faults->faults[0].kind, sim::FaultKind::SensorDropout);
  EXPECT_EQ(s.spec.faults->faults[1].kind, sim::FaultKind::QosBlind);
  EXPECT_DOUBLE_EQ(s.spec.faults->faults[1].end_s, 45.0);
  EXPECT_EQ(s.spec.faults->faults[2].kind, sim::FaultKind::PauseFail);
}

TEST(ScenarioFile, IntegerKeysRejectNanNegativeAndHugeValues) {
  // Every integer-valued key must fail on its own line instead of
  // reaching an undefined float-to-integer cast (fault `dim` is covered
  // by FaultSpecParse.ErrorsNameTheLine).
  for (const std::string prefix :
       {"workers = ", "seed = ", "fault_seed = ", "prediction_samples = ",
        "ingest_ring_capacity = ", "[cluster]\nadmit_patience = ",
        "[cluster]\nmigration_cooldown = "}) {
    for (const char* value : {"nan", "-1", "1e300"}) {
      std::string doc = "sensitive = vlc-stream\n" + prefix + value +
                        "\n[host \"a\"]\n";
      std::string line = prefix[0] == '[' ? "line 3" : "line 2";
      try {
        parse_fleet(doc);
        ADD_FAILURE() << "accepted: " << prefix << value;
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
            << e.what();
      }
    }
  }
  // Integral forms still parse.
  Scenario integral = parse("prediction_samples = 1e1\n");
  EXPECT_EQ(integral.spec.stayaway.prediction_samples, 10u);
}

TEST(ScenarioFile, FaultedScenarioActuallyRuns) {
  Scenario s = parse(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 30
    batch_start_s = 5
    vm = extra1:membomb:10
    fault = sensor-dropout start=8 end=20 p=0.5
    fault = qos-blind start=10 end=16
  )");
  ExperimentResult r = run_experiment(s.spec);
  EXPECT_EQ(r.qos.size(), 30u);
  EXPECT_GT(r.readings_quarantined, 0u);
  EXPECT_GT(r.degraded_periods + r.failsafe_periods, 0u);
}

TEST(ScenarioFile, WorkloadCyclesMustBeFiniteAndPositive) {
  // A non-finite cycle count used to reach an undefined double -> size_t
  // cast in the diurnal generator; now each one fails before any trace is
  // allocated.
  for (const char* value : {"inf", "nan", "-1"}) {
    try {
      parse(std::string("workload = diurnal\nworkload_cycles = ") + value +
            "\n");
      ADD_FAILURE() << "accepted workload_cycles = " << value;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // Finite but more than one load cycle per control period: the trace
  // would hold 96 samples per cycle (2e5 cycles = 19.2M samples), so the
  // reader rejects it by name before any trace is allocated.
  for (const char* value : {"2e5", "1e300"}) {
    try {
      parse(std::string("duration_s = 40\nperiod_s = 1\nworkload = "
                        "diurnal\nworkload_cycles = ") +
            value + "\n");
      ADD_FAILURE() << "accepted workload_cycles = " << value;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("workload_cycles"),
                std::string::npos)
          << e.what();
    }
  }
  // The boundary, one cycle per period, is accepted.
  Scenario edge = parse(
      "duration_s = 40\nperiod_s = 1\nworkload = diurnal\n"
      "workload_cycles = 40\n");
  EXPECT_EQ(edge.workload_cycles, 40.0);
}

TEST(ScenarioFile, ParsedScenarioActuallyRuns) {
  Scenario s = parse(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 30
    batch_start_s = 5
  )");
  ExperimentResult r = run_experiment(s.spec);
  EXPECT_EQ(r.qos.size(), 30u);
}

TEST(FleetScenarioFile, PlainDocumentsParseUnchanged) {
  FleetScenario f = parse_fleet("sensitive = vlc-stream\nseed = 7\n");
  EXPECT_FALSE(f.fleet_syntax);
  EXPECT_TRUE(f.hosts.empty());
  EXPECT_EQ(f.workers, 1u);
  EXPECT_EQ(f.base.spec.seed, 7u);
}

TEST(FleetScenarioFile, HostSectionsOverlayTheBase) {
  FleetScenario f = parse_fleet(R"(
    sensitive = vlc-stream
    batch = twitter-analysis
    duration_s = 30
    workers = 4
    [host "web-a"]
    seed = 5
    [host "web-b"]   # inherits everything, overrides the batch
    batch = cpubomb
  )");
  EXPECT_TRUE(f.fleet_syntax);
  EXPECT_EQ(f.workers, 4u);
  ASSERT_EQ(f.hosts.size(), 2u);
  EXPECT_EQ(f.hosts[0].first, "web-a");
  EXPECT_EQ(f.hosts[0].second.spec.seed, 5u);
  EXPECT_EQ(f.hosts[0].second.spec.batch, BatchKind::TwitterAnalysis);
  EXPECT_EQ(f.hosts[1].first, "web-b");
  EXPECT_EQ(f.hosts[1].second.spec.batch, BatchKind::CpuBomb);
  EXPECT_EQ(f.hosts[1].second.spec.sensitive, SensitiveKind::VlcStream);
  EXPECT_DOUBLE_EQ(f.hosts[1].second.spec.duration_s, 30.0);
}

TEST(FleetScenarioFile, DiurnalAndFaultsFinishPerHost) {
  // The diurnal trace and fault-plan seed must derive from each host's
  // final (possibly overridden) seed, not the base's.
  FleetScenario f = parse_fleet(R"(
    workload = diurnal
    fault = qos-blind start=5 end=10
    seed = 3
    [host "a"]
    seed = 4
  )");
  ASSERT_EQ(f.hosts.size(), 1u);
  ASSERT_TRUE(f.base.spec.faults.has_value());
  ASSERT_TRUE(f.hosts[0].second.spec.faults.has_value());
  EXPECT_EQ(f.base.spec.faults->seed, 3u);
  EXPECT_EQ(f.hosts[0].second.spec.faults->seed, 4u);
  EXPECT_TRUE(f.hosts[0].second.spec.workload.has_value());
}

TEST(FleetScenarioFile, RejectsMalformedFleetSyntax) {
  EXPECT_THROW(parse_fleet("[host \"a\"\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[node \"a\"]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host a]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"\"]\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"a\"]\n[host \"a\"]\n"),
               PreconditionError);
  EXPECT_THROW(parse_fleet("[host \"a\"]\nworkers = 2\n"),
               PreconditionError);
  EXPECT_THROW(parse_fleet("workers = 0\n"), PreconditionError);
  EXPECT_THROW(parse_fleet("workers = 2\nworkers = 2\n"), PreconditionError);
  // Per-section duplicate keys are still duplicates.
  EXPECT_THROW(parse_fleet("[host \"a\"]\nseed = 1\nseed = 2\n"),
               PreconditionError);
  // The writer puts host names inside quotes, so the reader rejects a
  // name holding one instead of running a fleet it cannot record.
  try {
    parse_fleet("seed = 1\n[host \"we\"b\"]\n");
    ADD_FAILURE() << "accepted a quote in a host name";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioFile, QuotedValuesAndEscapes) {
  Scenario s = parse(
      "series_csv = \"runs/a b.csv\"\n"
      "template_out = \"tab\\tnl\\nq\\\"bs\\\\.csv\"\n");
  EXPECT_EQ(*s.series_csv, "runs/a b.csv");
  EXPECT_EQ(*s.template_out, "tab\tnl\nq\"bs\\.csv");
}

TEST(ScenarioFile, HashInsideQuotesIsNotAComment) {
  Scenario s = parse("series_csv = \"run#3.csv\"  # real comment\n");
  EXPECT_EQ(*s.series_csv, "run#3.csv");
}

TEST(ScenarioFile, QuotingErrorsNameTheLine) {
  for (const char* bad :
       {"seed = 1\nseries_csv = \"open\n",
        "seed = 1\nseries_csv = \"a\" trailing\n",
        "seed = 1\nseries_csv = \"bad\\x\"\n",
        "seed = 1\nseries_csv = \"dangling\\\n"}) {
    try {
      parse(bad);
      FAIL() << "should have thrown: " << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioFile, SeedsParseAsFullUint64) {
  // Doubles cannot hold this value exactly; a parse through strtod
  // would silently round it.
  Scenario s = parse("seed = 18446744073709551615\n"
                     "fault_seed = 9007199254740993\n"
                     "fault = qos-blind start=1 end=2\n");
  EXPECT_EQ(s.spec.seed, 18446744073709551615ULL);
  EXPECT_EQ(s.spec.faults->seed, 9007199254740993ULL);
}

TEST(ScenarioFile, GovernorKeysParse) {
  Scenario s = parse(R"(
    beta_increment = 0.01
    beta_max = 0.5
    resume_grace_s = 7
    starvation_patience_s = 33
    random_resume_probability = 0.25
  )");
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_increment, 0.01);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.beta_max, 0.5);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.resume_grace_s, 7.0);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.starvation_patience_s, 33.0);
  EXPECT_DOUBLE_EQ(s.spec.stayaway.governor.random_resume_probability, 0.25);
}

TEST(ScenarioFile, SerializeParseSerializeIsAFixedPoint) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = webservice-mix
    batch = soplex
    policy = stay-away
    duration_s = 45
    seed = 18446744073709551615
    workload = diurnal
    workload_cycles = 2.5
    beta_increment = 0.0125
    metrics = cpu,mem
    vm = extra one:membomb:12.5
    fault_seed = 7
    fault = sensor-dropout start=3 end=9 p=0.25 dim=1
    fault = resume-fail start=12 p=0.5
  )");
  std::string once = serialize_fleet_scenario(doc);
  FleetScenario back = parse_fleet(once);
  std::string twice = serialize_fleet_scenario(back);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(back.base.spec.seed, doc.base.spec.seed);
  ASSERT_TRUE(back.base.spec.faults.has_value());
  EXPECT_EQ(back.base.spec.faults->faults.size(), 2u);
  ASSERT_EQ(back.base.spec.extra_batch.size(), 1u);
  EXPECT_EQ(back.base.spec.extra_batch[0].name, "extra one");
}

TEST(ScenarioFile, SubnormalValuesRoundTrip) {
  // format_double_exact writes subnormals (4.94065645841247e-324); the
  // scenario and fault-line parsers must read them back instead of
  // treating strtod's underflow report as a malformed number.
  Scenario doc = parse(R"(
    duration_s = 45
    fault = sensor-dropout start=3 end=9
  )");
  doc.spec.stayaway.sampler.noise_fraction =
      std::numeric_limits<double>::denorm_min();
  ASSERT_TRUE(doc.spec.faults.has_value());
  doc.spec.faults->faults[0].start_s = 1e-320;
  std::string once = serialize(doc);
  Scenario back = parse(once);
  EXPECT_EQ(back.spec.stayaway.sampler.noise_fraction,
            std::numeric_limits<double>::denorm_min());
  ASSERT_TRUE(back.spec.faults.has_value());
  ASSERT_EQ(back.spec.faults->faults.size(), 1u);
  EXPECT_EQ(back.spec.faults->faults[0].start_s, 1e-320);
  EXPECT_EQ(serialize(back), once);
  // Overflow is still a malformed number.
  EXPECT_THROW(parse("noise_fraction = 1e400\n"), PreconditionError);
  EXPECT_THROW(parse("fault = sensor-dropout start=1e400\n"),
               PreconditionError);
}

TEST(FleetScenarioFile, FleetSerializeParseSerializeIsAFixedPoint) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = vlc-stream
    batch = twitter-analysis
    duration_s = 30
    workers = 3
    [host "web a"]
    seed = 5
    fault = qos-blind start=4 end=8
    [host "web-b"]
    batch = cpubomb
  )");
  std::string once = serialize_fleet_scenario(doc);
  FleetScenario back = parse_fleet(once);
  std::string twice = serialize_fleet_scenario(back);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(back.workers, 3u);
  ASSERT_EQ(back.hosts.size(), 2u);
  // Overlay ordering survives: host sections come back in declaration
  // order with their overridden values materialized.
  EXPECT_EQ(back.hosts[0].first, "web a");
  EXPECT_EQ(back.hosts[0].second.spec.seed, 5u);
  EXPECT_TRUE(back.hosts[0].second.spec.faults.has_value());
  EXPECT_EQ(back.hosts[1].first, "web-b");
  EXPECT_EQ(back.hosts[1].second.spec.batch, BatchKind::CpuBomb);
  EXPECT_EQ(back.hosts[1].second.spec.sensitive, SensitiveKind::VlcStream);
}

TEST(FleetScenarioFile, SerializedDocumentRunsIdentically) {
  FleetScenario doc = parse_fleet(R"(
    sensitive = vlc-stream
    batch = cpubomb
    duration_s = 25
    batch_start_s = 5
    workload = diurnal
    fault = sensor-dropout start=5 end=15 p=0.5
  )");
  std::istringstream round(serialize_fleet_scenario(doc));
  FleetScenario back = parse_fleet_scenario(round);
  ExperimentResult a = run_experiment(doc.base.spec);
  ExperimentResult b = run_experiment(back.base.spec);
  EXPECT_EQ(a.stayaway_records, b.stayaway_records);
  EXPECT_EQ(a.qos, b.qos);
}

// --- Canonical bytes ------------------------------------------------------
//
// Run-logs embed serialize_fleet_scenario's output (DESIGN.md §14), so the
// canonical form is a format: these tests pin it byte for byte. A
// fixed-point test alone would pass if reader and writer drifted together.

/// A document that uses every key of every section: two [host] overlays,
/// workers, a [cluster] section with mobile and admit VMs, a non-default
/// ingest block, extra VMs, a seeded two-line fault plan, compare, and
/// quoted paths holding '#' and a space.
constexpr const char* kEveryKeyDocument = R"(# every key, every section
workers = 2
sensitive = webservice-mix
batch = soplex
policy = stay-away
duration_s = 45
period_s = 0.5
tick_s = 0.05
batch_start_s = 5
sensitive_start_s = 1
seed = 11
workload = diurnal
workload_cycles = 2.5
dedup_epsilon = 0.07
prediction_samples = 6
beta_initial = 0.02
beta_increment = 0.0125
beta_max = 0.3
resume_grace_s = 4
starvation_patience_s = 20
random_resume_probability = 0.1
actions_enabled = false
allow_sensitive_demotion = true
aggregate_batch = false
noise_fraction = 0.03
metrics = cpu, mem ,io
ingest_source = ring
ingest_rate_hz = 16
ingest_ring_capacity = 64
ingest_lookahead_s = 0.5
ingest_burst_rate_hz = 128
ingest_burst_start_s = 10
ingest_burst_end_s = 20
vm = extra:membomb:12.5
fault_seed = 9
fault = sensor-dropout start=3 end=9 p=0.25 dim=1
fault = qos-blind start=12 end=15   # trailing comment
compare = true
template_in = base.template.csv
template_out = "runs/out #1.csv"
series_csv = "runs/series #1.csv"
[cluster]
migrate = false
admit_margin = 0.3
admit_patience = 4
migration_cooldown = 3
admit_footprint = 0.4
mobile = crunch:cpubomb:web-a:20
admit = late:twitter-analysis:30
[host "web-a"]
seed = 5
[host "web b"]
batch = cpubomb
vm = spare:cpubomb
)";

/// One expanded host body of kEveryKeyDocument's canonical form.
std::string every_key_host(const std::string& batch, const std::string& seed,
                           const std::string& extra_vms) {
  return "sensitive = webservice-mix\n"
         "batch = " + batch + "\n"
         "policy = stay-away\n"
         "duration_s = 45\n"
         "period_s = 0.5\n"
         "tick_s = 0.05\n"
         "batch_start_s = 5\n"
         "sensitive_start_s = 1\n"
         "seed = " + seed + "\n"
         "workload = diurnal\n"
         "workload_cycles = 2.5\n"
         "dedup_epsilon = 0.07\n"
         "prediction_samples = 6\n"
         "beta_initial = 0.02\n"
         "beta_increment = 0.0125\n"
         "beta_max = 0.3\n"
         "resume_grace_s = 4\n"
         "starvation_patience_s = 20\n"
         "random_resume_probability = 0.1\n"
         "actions_enabled = false\n"
         "allow_sensitive_demotion = true\n"
         "aggregate_batch = false\n"
         "noise_fraction = 0.03\n"
         "metrics = cpu,mem,io\n"
         "ingest_source = ring\n"
         "ingest_rate_hz = 16\n"
         "ingest_ring_capacity = 64\n"
         "ingest_lookahead_s = 0.5\n"
         "ingest_burst_rate_hz = 128\n"
         "ingest_burst_start_s = 10\n"
         "ingest_burst_end_s = 20\n"
         "vm = extra:membomb:12.5\n" + extra_vms +
         "fault_seed = 9\n"
         "fault = sensor-dropout start=3 end=9 p=0.25 mag=8 dim=1\n"
         "fault = qos-blind start=12 end=15 p=1 mag=8 dim=-1\n"
         "compare = true\n"
         "template_in = base.template.csv\n"
         "template_out = \"runs/out #1.csv\"\n"
         "series_csv = \"runs/series #1.csv\"\n";
}

std::string every_key_canonical() {
  return "workers = 2\n"
         "[cluster]\n"
         "migrate = false\n"
         "admit_margin = 0.3\n"
         "admit_patience = 4\n"
         "migration_cooldown = 3\n"
         "admit_footprint = 0.4\n"
         "mobile = crunch:cpubomb:web-a:20\n"
         "admit = late:twitter-analysis:30\n"
         "[host \"web-a\"]\n" +
         every_key_host("soplex", "5", "") + "[host \"web b\"]\n" +
         every_key_host("cpubomb", "11", "vm = spare:cpubomb:15\n");
}

TEST(ScenarioGolden, CommittedRunLogScenariosAreCanonical) {
  std::filesystem::path dir(SA_REGRESSION_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".runlog") continue;
    replay::RunLog log = replay::load_run_log(entry.path().string());
    EXPECT_EQ(serialize_fleet_scenario(parse_fleet(log.scenario_text)),
              log.scenario_text)
        << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

TEST(ScenarioGolden, EveryKeyDocumentSerializesToPinnedBytes) {
  std::string canonical =
      serialize_fleet_scenario(parse_fleet(kEveryKeyDocument));
  EXPECT_EQ(canonical, every_key_canonical());
  EXPECT_EQ(serialize_fleet_scenario(parse_fleet(canonical)), canonical);
}

/// Seeded single-byte damage to the canonical every-key document: each
/// mutant must either parse, and then serialize to a fixed point, or fail
/// as PreconditionError, the one error a malformed scenario may raise.
/// Any other exception type means the reader trusts its input.
void expect_mutants_parse_or_fail_typed(std::uint64_t seed,
                                        std::size_t mutants) {
  const std::string canonical = every_key_canonical();
  // Digits, number and scenario syntax: mutants stay close to
  // well-formed, so they reach the value codecs and the section rules.
  const std::string alphabet = "0123456789 -.=\n\"#:[],xeinaft";
  Rng rng(seed);
  std::size_t parsed = 0;
  for (std::size_t m = 0; m < mutants; ++m) {
    std::string mutant = canonical;
    std::size_t pos = rng.index(mutant.size());
    mutant[pos] = alphabet[rng.index(alphabet.size())];
    FleetScenario doc;
    try {
      doc = parse_fleet(mutant);
    } catch (const PreconditionError&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << pos << " -> '" << mutant[pos]
                    << "' threw a non-precondition error: " << e.what();
      continue;
    }
    ++parsed;
    std::string once = serialize_fleet_scenario(doc);
    EXPECT_EQ(serialize_fleet_scenario(parse_fleet(once)), once)
        << "byte " << pos << " -> '" << mutant[pos] << "'";
  }
  // Both outcomes occur: the mutants are neither all harmless nor all
  // rejected.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, mutants);
}

TEST(ScenarioMutation, EveryKeyMutantsParseOrFailTyped) {
  expect_mutants_parse_or_fail_typed(17, 1500);
}

TEST(ScenarioMutation, EveryKeyMutantsParseOrFailTypedSecondSeed) {
  expect_mutants_parse_or_fail_typed(29, 1500);
}

}  // namespace
}  // namespace stayaway::harness
