// Checkpoint/restore and supervised crash-recovery tests (DESIGN.md
// §17): the record codec's exactness on non-finite values, the envelope's
// typed rejection of version/integrity/truncation/malformed-record
// damage, full-pipeline
// round trips through edge states (empty representative set, mid-retry
// actuation ledger, Failsafe degradation), forged counts and seeded
// single-byte mutants failing only as util::StateCodecError, the pinned
// bytes of four real blobs, and the load-bearing golden guarantee — a
// run that crashes, restores and replays its tail is byte-identical to
// the uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/period.hpp"
#include "harness/fleet.hpp"
#include "harness/rig.hpp"
#include "harness/scenario_file.hpp"
#include "replay/replay.hpp"
#include "sim/faults.hpp"
#include "util/envelope.hpp"
#include "util/rng.hpp"

namespace stayaway::harness {
namespace {

ExperimentSpec short_spec() {
  ExperimentSpec spec;
  spec.sensitive = SensitiveKind::VlcStream;
  spec.batch = BatchKind::CpuBomb;
  spec.policy = PolicyKind::StayAway;
  spec.duration_s = 40.0;
  spec.batch_start_s = 5.0;
  return spec;
}

sim::FaultSpec fault_of(sim::FaultKind kind, double start, double end,
                        double p = 1.0, double magnitude = 8.0) {
  sim::FaultSpec s;
  s.kind = kind;
  s.start_s = start;
  s.end_s = end;
  s.probability = p;
  s.magnitude = magnitude;
  return s;
}

/// The non-crash plan reused as background noise so the golden tests
/// exercise recovery while the degradation machinery is busy too.
sim::FaultPlan stress_plan() {
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.faults.push_back(
      fault_of(sim::FaultKind::SensorDropout, 5.0, 25.0, 0.3));
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 18.0));
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 30.0, 0.5));
  return plan;
}

/// Pause failures all the way to the end of the run leave the actuator
/// holding a live retry ledger at the final boundary.
ExperimentSpec mid_retry_spec() {
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.faults.push_back(fault_of(sim::FaultKind::PauseFail, 0.0, 40.0));
  spec.faults = plan;
  return spec;
}

/// A QoS blackout running through the end of the run drives the
/// degradation machine into Failsafe.
ExperimentSpec failsafe_spec() {
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.faults.push_back(fault_of(sim::FaultKind::QosBlind, 10.0, 40.0));
  spec.faults = plan;
  return spec;
}

/// A ring-fed host (DESIGN.md §15) whose burst window overflows its
/// small ring, with ingest-delay/-dup faults holding samples back and
/// pushing duplicates.
ExperimentSpec ring_ingest_spec() {
  ExperimentSpec spec = short_spec();
  spec.stayaway.ingest.source = core::IngestSource::Ring;
  spec.stayaway.ingest.rate_hz = 16.0;
  spec.stayaway.ingest.ring_capacity = 32;
  spec.stayaway.ingest.burst_rate_hz = 128.0;
  spec.stayaway.ingest.burst_start_s = 6.0;
  spec.stayaway.ingest.burst_end_s = 10.0;
  sim::FaultPlan plan;
  plan.seed = 4;
  plan.faults.push_back(fault_of(sim::FaultKind::IngestDelay, 0.0, 40.0, 0.5));
  plan.faults.push_back(
      fault_of(sim::FaultKind::IngestDuplicate, 0.0, 40.0, 0.3));
  spec.faults = plan;
  return spec;
}

/// Byte-level record comparison: the record line is exact on NaN where
/// operator== would lie.
void expect_records_byte_identical(
    const std::vector<core::PeriodRecord>& got,
    const std::vector<core::PeriodRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(core::serialize_period_record(got[i]),
              core::serialize_period_record(want[i]))
        << "period " << i;
  }
}

/// Runs `spec` as a supervised fleet of one and returns the host result.
FleetHostResult run_supervised(const ExperimentSpec& spec,
                               std::size_t checkpoint_every = 0,
                               std::size_t watchdog_budget = 3) {
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.supervise = true;
  fleet.checkpoint_every = checkpoint_every;
  fleet.watchdog_budget = watchdog_budget;
  fleet.export_checkpoints = true;
  FleetResult r = run_fleet(fleet);
  return r.hosts.at(0);
}

// --- Record codec -----------------------------------------------------

TEST(CheckpointRecordCodec, NonFiniteCoordsRoundTripExactly) {
  core::PeriodRecord rec;
  rec.time = 17.0;
  rec.state.x = std::numeric_limits<double>::quiet_NaN();
  rec.state.y = std::numeric_limits<double>::infinity();
  rec.stress = -std::numeric_limits<double>::infinity();
  rec.beta = std::numeric_limits<double>::quiet_NaN();
  rec.representative = 3;
  rec.actuation_retries = 2;
  rec.actuation_pending = true;

  std::string text = core::serialize_period_record(rec);
  core::PeriodRecord back = core::parse_period_record(text);
  EXPECT_EQ(core::serialize_period_record(back), text);
  EXPECT_TRUE(std::isnan(back.state.x));
  EXPECT_TRUE(std::isinf(back.state.y));
}

// --- Envelope rejection -----------------------------------------------

/// A real end-of-run blob to damage: short fault-free run.
std::string sample_blob() {
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  return run_supervised(spec).final_checkpoint;
}

/// Rewrites one field of the first `record = ` line of `blob` and
/// re-seals it, so the damage gets past the checksum and reaches the
/// record decoder.
std::string tamper_first_record(const std::string& blob,
                                const std::string& key,
                                const std::string& value) {
  const std::string magic = "stayaway-checkpoint";
  std::string body(util::open_envelope(blob, magic, core::kCheckpointVersion));
  const std::string marker = "\nrecord = ";
  std::size_t start = body.find(marker) + marker.size();
  std::size_t end = body.find('\n', start);
  std::istringstream fields(body.substr(start, end - start));
  std::string line;
  std::string token;
  while (fields >> token) {
    if (token.rfind(key + "=", 0) == 0) token = key + "=" + value;
    line += (line.empty() ? "" : " ") + token;
  }
  body.replace(start, end - start, line);
  return util::seal_envelope(magic, core::kCheckpointVersion, body);
}

TEST(CheckpointRecordCodec, RejectsOutOfRangeEnums) {
  // A checksum-consistent blob whose record line is malformed is still
  // checkpoint damage: restore reports util::StateCodecError (which the
  // supervisor drops), never a stray PreconditionError.
  std::string blob = sample_blob();
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"mode", "9"}, {"act", "7"}, {"deg", "5"}, {"t", "abc"}}) {
    HostRig rig = build_host_rig(spec);
    core::HostPipeline pipeline(*rig.host, *rig.probe,
                                derive_stayaway_config(spec));
    EXPECT_THROW(core::restore_checkpoint(
                     pipeline, tamper_first_record(blob, key, value)),
                 util::StateCodecError)
        << key << "=" << value << " accepted";
  }
}

TEST(CheckpointEnvelope, VersionMismatchIsItsOwnError) {
  std::string blob = sample_blob();
  const std::string current =
      "stayaway-checkpoint v" + std::to_string(core::kCheckpointVersion);
  ASSERT_EQ(blob.rfind(current + "\n", 0), 0u);
  std::string wrong = blob;
  wrong.replace(0, current.size(),
                "stayaway-checkpoint v" +
                    std::to_string(core::kCheckpointVersion - 1));

  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.restore["solo"] = wrong;
  EXPECT_THROW(run_fleet(fleet), util::EnvelopeVersionError);
}

TEST(CheckpointEnvelope, ChecksumMismatchIsItsOwnError) {
  std::string blob = sample_blob();
  core::corrupt_checkpoint_blob(blob);

  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  FleetSpec fleet;
  fleet.hosts.push_back({"solo", spec});
  fleet.restore["solo"] = blob;
  EXPECT_THROW(run_fleet(fleet), util::EnvelopeChecksumError);
}

TEST(CheckpointEnvelope, TruncationAndTrailingGarbageRejected) {
  std::string blob = sample_blob();
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;

  for (const std::string& damaged :
       {blob.substr(0, blob.size() - 10), blob.substr(0, blob.size() / 2),
        blob + "extra = 1\n",
        "stayaway-checkpoint v" + std::to_string(core::kCheckpointVersion) +
            "\n"}) {
    FleetSpec fleet;
    fleet.hosts.push_back({"solo", spec});
    fleet.restore["solo"] = damaged;
    EXPECT_THROW(run_fleet(fleet), util::StateCodecError);
  }
}

// --- Untrusted counts --------------------------------------------------

constexpr const char* kForgedCount = "1000000000000000000";

/// `blob` with the representative count forged and the body re-sealed,
/// so the damage gets past the checksum and reaches the state decoder.
std::string forge_representative_count(const std::string& blob) {
  const std::string magic = "stayaway-checkpoint";
  std::string body(util::open_envelope(blob, magic, core::kCheckpointVersion));
  const std::string marker = "\nrepresentatives = ";
  std::size_t start = body.find(marker);
  EXPECT_NE(start, std::string::npos);
  start += marker.size();
  body.replace(start, body.find('\n', start) - start, kForgedCount);
  return util::seal_envelope(magic, core::kCheckpointVersion, body);
}

TEST(CheckpointEnvelope, ForgedRepresentativeCountIsCodecError) {
  std::string forged = forge_representative_count(sample_blob());
  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  HostRig rig = build_host_rig(spec);
  core::HostPipeline pipeline(*rig.host, *rig.probe,
                              derive_stayaway_config(spec));
  EXPECT_THROW(core::restore_checkpoint(pipeline, forged),
               util::StateCodecError);
}

/// Mapper whose snapshot is a fixed list of recorded `key = value`
/// lines: it plants a forged mapper section in the checkpoints the
/// supervisor takes. It maps nothing and is never loaded into.
class RecordedSnapshotMapper : public core::Mapper {
 public:
  explicit RecordedSnapshotMapper(
      std::vector<std::pair<std::string, std::string>> lines)
      : lines_(std::move(lines)) {}

  monitor::SampleHealth map(core::PeriodRecord&, obs::Observer*) override {
    return {};
  }
  void observe_qos(std::size_t, bool) override {}
  const core::StateSpace& space() const override { return space_; }
  bool checkpointable() const override { return true; }
  void state(util::StateIO& io) override {
    for (auto& [key, value] : lines_) io.line(key, value);
  }

 private:
  std::vector<std::pair<std::string, std::string>> lines_;
  core::StateSpace space_;
};

TEST(SupervisorGolden, ForgedRepresentativeCountIsDroppedAsCorrupt) {
  // The mapper section of a real checkpoint, with its representative
  // count forged: every checkpoint the supervisor takes carries it, so
  // the crash recovery must drop them all as corrupt and cold-start
  // instead of failing the member.
  const std::string magic = "stayaway-checkpoint";
  std::string body(util::open_envelope(
      forge_representative_count(sample_blob()), magic,
      core::kCheckpointVersion));
  std::vector<std::pair<std::string, std::string>> lines;
  std::istringstream in(body.substr(body.find("has_mapper = true\n") +
                                    std::string("has_mapper = true\n").size()));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("has_forecaster = ", 0) == 0) break;
    std::size_t eq = line.find(" = ");
    lines.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  ASSERT_FALSE(lines.empty());

  ExperimentSpec spec = short_spec();
  spec.duration_s = 12.0;
  sim::FaultPlan plan;
  plan.seed = 1;
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 6.0, 7.0));
  HostRig rig = build_host_rig(spec);
  core::StageSet stages;
  stages.mapper = std::make_unique<RecordedSnapshotMapper>(lines);
  auto forging = std::make_unique<core::HostPipeline>(
      *rig.host, *rig.probe, derive_stayaway_config(spec), std::move(stages));
  forging->install_faults(plan);

  HostRig fresh_rig;
  std::unique_ptr<core::HostPipeline> fresh;
  core::FleetConfig config;
  config.checkpoint_every = 2;
  core::FleetController controller(config);
  core::FleetController::Member member;
  member.name = "solo";
  member.host = rig.host.get();
  member.pipeline = forging.get();
  member.periods = 12;
  member.rebuild = [&] {
    fresh.reset();
    fresh_rig = build_host_rig(spec);
    fresh = std::make_unique<core::HostPipeline>(
        *fresh_rig.host, *fresh_rig.probe, derive_stayaway_config(spec));
    fresh->install_faults(plan);
    return core::FleetController::Member::Rebuilt{fresh_rig.host.get(),
                                                  fresh.get()};
  };
  controller.add_member(std::move(member));
  controller.run();

  const core::RecoveryReport& report = controller.members()[0].recovery;
  EXPECT_GE(report.crashes, 1u);
  EXPECT_GE(report.corrupt_checkpoints_dropped, 1u);
  EXPECT_EQ(report.cold_starts, 1u);
}

/// Seeded single-byte damage to a real checkpoint body, re-sealed so it
/// passes the checksum: every mutant must either restore cleanly or fail
/// as util::StateCodecError — the one type the supervisor drops and
/// --restore reports. Any other exception type means a load path trusts
/// its input.
void expect_mutants_restore_or_codec_error(const ExperimentSpec& spec,
                                           const std::string& blob,
                                           std::uint64_t seed,
                                           std::size_t mutants) {
  const std::string magic = "stayaway-checkpoint";
  const std::string body(
      util::open_envelope(blob, magic, core::kCheckpointVersion));
  ASSERT_FALSE(body.empty());
  // Bytes that keep a mutant close to well-formed, so it reaches deep
  // into the decoders instead of failing on the first key.
  const std::string alphabet = "0123456789 -.=\nxeinaft";
  Rng rng(seed);
  std::size_t restored = 0;
  for (std::size_t m = 0; m < mutants; ++m) {
    std::string mutant = body;
    std::size_t pos = rng.index(mutant.size());
    mutant[pos] = alphabet[rng.index(alphabet.size())];
    std::string damaged =
        util::seal_envelope(magic, core::kCheckpointVersion, mutant);
    HostRig rig = build_host_rig(spec);
    core::HostPipeline pipeline(*rig.host, *rig.probe,
                                derive_stayaway_config(spec));
    if (spec.faults.has_value()) pipeline.install_faults(*spec.faults);
    try {
      core::restore_checkpoint(pipeline, damaged);
      ++restored;
    } catch (const util::StateCodecError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "byte " << pos << " -> '" << mutant[pos]
                    << "' threw a non-codec error: " << e.what();
    }
  }
  // Both outcomes occur: the mutants are neither all harmless nor all
  // rejected at the first byte.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, mutants);
}

TEST(CheckpointMutation, MidRetryLedgerMutantsRestoreOrFailTyped) {
  ExperimentSpec spec = mid_retry_spec();
  expect_mutants_restore_or_codec_error(
      spec, run_supervised(spec).final_checkpoint, 17, 250);
}

TEST(CheckpointMutation, RingIngestMutantsRestoreOrFailTyped) {
  ExperimentSpec spec = ring_ingest_spec();
  expect_mutants_restore_or_codec_error(
      spec, run_supervised(spec).final_checkpoint, 29, 250);
}

// --- Full-pipeline round trips ----------------------------------------

/// Restoring a full-run checkpoint and re-exporting must reproduce the
/// blob byte for byte: the fast-forward replay lands on the same state
/// the original run ended in.
void expect_restore_reencodes_identically(const ExperimentSpec& spec) {
  FleetHostResult original = run_supervised(spec);
  ASSERT_FALSE(original.final_checkpoint.empty());

  FleetSpec again;
  again.hosts.push_back({"solo", spec});
  again.export_checkpoints = true;
  again.restore["solo"] = original.final_checkpoint;
  FleetResult r = run_fleet(again);
  EXPECT_EQ(r.hosts.at(0).final_checkpoint, original.final_checkpoint);
  // Restored runs report the live tail only — here there is none — while
  // the record history spans the full run.
  EXPECT_TRUE(r.hosts.at(0).result.time.empty());
  expect_records_byte_identical(r.hosts.at(0).result.stayaway_records,
                                original.result.stayaway_records);
}

TEST(CheckpointRoundTrip, FullRunReencodesByteIdentically) {
  expect_restore_reencodes_identically(short_spec());
}

TEST(CheckpointRoundTrip, EmptyRepresentativeSet) {
  // Representatives appear from the very first period, so the genuinely
  // empty state is a freshly wired pipeline: no records, no
  // representatives, no journal. Its snapshot must round-trip too.
  ExperimentSpec spec = short_spec();
  HostRig rig = build_host_rig(spec);
  core::HostPipeline pipeline(*rig.host, *rig.probe,
                              derive_stayaway_config(spec));
  ASSERT_TRUE(pipeline.checkpointable());
  std::string blob = core::encode_checkpoint(pipeline);
  EXPECT_NE(blob.find("records = 0"), std::string::npos);

  HostRig again = build_host_rig(spec);
  core::HostPipeline restored(*again.host, *again.probe,
                              derive_stayaway_config(spec));
  EXPECT_EQ(core::restore_checkpoint(restored, blob), 0u);
  EXPECT_EQ(core::encode_checkpoint(restored), blob);
}

TEST(CheckpointRoundTrip, MidRetryActuationLedger) {
  ExperimentSpec spec = mid_retry_spec();
  FleetHostResult r = run_supervised(spec);
  EXPECT_GT(r.result.actuation_retries, 0u);
  EXPECT_NE(r.final_checkpoint.find("actuation_retries_total = "),
            std::string::npos);
  expect_restore_reencodes_identically(spec);
}

TEST(CheckpointRoundTrip, FailsafeDegradationState) {
  // The snapshot must carry the Failsafe degradation state.
  ExperimentSpec spec = failsafe_spec();
  FleetHostResult r = run_supervised(spec);
  EXPECT_GT(r.result.failsafe_periods, 0u);
  EXPECT_NE(r.final_checkpoint.find("degradation = 2"), std::string::npos);
  expect_restore_reencodes_identically(spec);
}

TEST(CheckpointRoundTrip, NonFinitesInHistory) {
  ExperimentSpec spec = short_spec();
  sim::FaultPlan plan;
  plan.seed = 9;
  plan.faults.push_back(
      fault_of(sim::FaultKind::NonFinite, 8.0, 20.0, 0.4));
  spec.faults = plan;
  expect_restore_reencodes_identically(spec);
}

// --- Golden crash/restore byte-identity --------------------------------

/// The load-bearing guarantee: injecting a crash-class fault, recovering
/// and replaying must leave a record stream byte-identical to the same
/// run without the crash faults. Crash-class specs draw nothing from the
/// plan RNG precisely so the two plans produce identical streams.
void expect_crash_run_matches_clean(
    const std::vector<sim::FaultSpec>& crash_faults,
    std::size_t checkpoint_every, std::size_t watchdog_budget,
    const std::function<void(const core::RecoveryReport&)>& check) {
  ExperimentSpec clean = short_spec();
  clean.faults = stress_plan();
  FleetHostResult baseline = run_supervised(clean);
  EXPECT_FALSE(baseline.recovery.any_failures());

  ExperimentSpec faulted = clean;
  for (const sim::FaultSpec& f : crash_faults) {
    faulted.faults->faults.push_back(f);
  }
  FleetHostResult crashed =
      run_supervised(faulted, checkpoint_every, watchdog_budget);

  expect_records_byte_identical(crashed.result.stayaway_records,
                                baseline.result.stayaway_records);
  EXPECT_EQ(crashed.recovery.divergences, 0u);
  check(crashed.recovery);
}

TEST(SupervisorGolden, HostCrashColdRestartIsByteIdentical) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::HostCrash, 20.0, 21.0)},
      /*checkpoint_every=*/0, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_GE(r.cold_starts, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, HostCrashWarmRestartIsByteIdentical) {
  // Checkpoints land after periods 4, 9, 14, 19, ...; a crash at the
  // period-22 boundary restores from the period-19 checkpoint and must
  // gap-replay the two periods in between.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::HostCrash, 22.0, 23.0)},
      /*checkpoint_every=*/5, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_EQ(r.cold_starts, 0u);
        EXPECT_GT(r.checkpoints_saved, 0u);
        EXPECT_GT(r.gap_periods_replayed, 0u);
      });
}

TEST(SupervisorGolden, RingIngestHostWarmRestartIsByteIdentical) {
  // A ring-fed host (DESIGN.md §15) with the default embedder warm-
  // restores like a synchronous one. The burst window overflows the
  // small ring before the period-19 checkpoint the crash restores from;
  // at the normal rate the lookahead leaves a popped-but-not-due sample
  // and queued ones behind every drain; ingest-delay/-dup faults make
  // the stream hold samples back and push duplicates.
  ExperimentSpec clean = ring_ingest_spec();
  FleetHostResult baseline = run_supervised(clean);
  EXPECT_FALSE(baseline.recovery.any_failures());

  std::size_t overflow = 0, late = 0, duplicates = 0;
  for (const core::PeriodRecord& rec : baseline.result.stayaway_records) {
    if (rec.time < 19.0) overflow += rec.overflow_drops;
    late += rec.late_samples;
    duplicates += rec.duplicate_samples;
  }
  EXPECT_GT(overflow, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_NE(baseline.final_checkpoint.find("ring_pending = true"),
            std::string::npos);

  ExperimentSpec faulted = clean;
  faulted.faults->faults.push_back(
      fault_of(sim::FaultKind::HostCrash, 22.0, 23.0));
  FleetHostResult crashed = run_supervised(faulted, /*checkpoint_every=*/5);
  expect_records_byte_identical(crashed.result.stayaway_records,
                                baseline.result.stayaway_records);
  EXPECT_GE(crashed.recovery.crashes, 1u);
  EXPECT_EQ(crashed.recovery.divergences, 0u);
  EXPECT_EQ(crashed.recovery.cold_starts, 0u);
  EXPECT_GT(crashed.recovery.checkpoints_saved, 0u);
  EXPECT_GT(crashed.recovery.gap_periods_replayed, 0u);
}

TEST(SupervisorGolden, StageThrowIsTrappedAndByteIdentical) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageThrow, 15.0, 16.0)},
      /*checkpoint_every=*/5, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.stage_throws, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, StallWithinBudgetRecoversInPlace) {
  // Two stalled attempts against a budget of three: the watchdog retries
  // in place, no recovery happens, and the stream is untouched.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageStall, 17.5, 18.5, 1.0,
                /*magnitude=*/2.0)},
      /*checkpoint_every=*/0, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.stalls, 1u);
        EXPECT_EQ(r.watchdog_trips, 0u);
        EXPECT_EQ(r.recoveries, 0u);
      });
}

TEST(SupervisorGolden, StallBeyondBudgetTripsWatchdog) {
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::StageStall, 17.5, 18.5, 1.0,
                /*magnitude=*/8.0)},
      /*checkpoint_every=*/5, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.watchdog_trips, 1u);
        EXPECT_GE(r.recoveries, 1u);
      });
}

TEST(SupervisorGolden, CorruptCheckpointFallsBackAndStaysIdentical) {
  // Checkpoints saved inside the corruption window rot at rest; the
  // crash recovery drops them and still reproduces the clean stream.
  expect_crash_run_matches_clean(
      {fault_of(sim::FaultKind::CheckpointCorrupt, 0.0, 40.0),
       fault_of(sim::FaultKind::HostCrash, 20.0, 21.0)},
      /*checkpoint_every=*/3, /*watchdog_budget=*/3,
      [](const core::RecoveryReport& r) {
        EXPECT_GE(r.crashes, 1u);
        EXPECT_GE(r.corrupt_checkpoints_dropped, 1u);
        EXPECT_GE(r.cold_starts, 1u);
      });
}

TEST(SupervisorGolden, CrashFaultsAutoEnableSupervision) {
  // No FleetSpec::supervise: the presence of crash-class faults in the
  // plan is enough, so a recorded scenario replays its own recovery.
  ExperimentSpec clean = short_spec();
  ExperimentResult baseline = run_experiment(clean);

  ExperimentSpec faulted = clean;
  sim::FaultPlan plan;
  plan.seed = 2;
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 12.0, 13.0));
  faulted.faults = plan;
  ASSERT_TRUE(faulted.faults->has_crash_faults());

  FleetSpec fleet;
  fleet.hosts.push_back({"solo", faulted});
  FleetResult r = run_fleet(fleet);
  EXPECT_GE(r.hosts.at(0).recovery.crashes, 1u);
  expect_records_byte_identical(r.hosts.at(0).result.stayaway_records,
                                baseline.stayaway_records);
}

TEST(SupervisorGolden, FleetSurvivesSingleHostCrash) {
  // 1-of-8 hosts crashes twice; every host still delivers its full
  // period count and the crashing host's stream matches its solo run.
  ExperimentSpec base = short_spec();
  base.duration_s = 30.0;
  FleetSpec fleet = replicate_fleet(base, 8, 77, 1);
  fleet.supervise = true;
  fleet.checkpoint_every = 5;

  ExperimentSpec crash_spec = fleet.hosts[3].experiment;
  sim::FaultPlan plan;
  plan.seed = 1;
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 10.0, 11.0));
  plan.faults.push_back(fault_of(sim::FaultKind::HostCrash, 22.0, 23.0));
  fleet.hosts[3].experiment.faults = plan;

  FleetResult r = run_fleet(fleet);
  ASSERT_EQ(r.hosts.size(), 8u);
  for (const FleetHostResult& host : r.hosts) {
    EXPECT_EQ(host.result.stayaway_records.size(), 30u) << host.name;
  }
  EXPECT_GE(r.hosts[3].recovery.crashes, 2u);
  EXPECT_EQ(r.hosts[3].recovery.divergences, 0u);
  for (std::size_t i = 0; i < r.hosts.size(); ++i) {
    if (i == 3) continue;
    EXPECT_FALSE(r.hosts[i].recovery.any_failures()) << r.hosts[i].name;
  }

  ExperimentResult solo = run_experiment(crash_spec);
  expect_records_byte_identical(r.hosts[3].result.stayaway_records,
                                solo.stayaway_records);
}

// --- Migration × recovery (DESIGN.md §18) ------------------------------

/// Coordinated three-host scenario whose mobile cpubomb migrates off
/// web-a mid-run; the crash variant kills web-a shortly after the first
/// migration, so recovery must gap-replay periods whose coordinator
/// directives (gates, attaches) the supervisor re-applies through
/// ClusterCoordinator::replay_host_period.
constexpr const char* kClusterRecoveryScenario = R"(sensitive  = webservice-cpu
batch      = none
policy     = stay-away
duration_s = 80
workload   = constant
[host "web-a"]
seed = 3
%%FAULTS%%[host "web-b"]
seed = 5
[host "web-c"]
seed = 7
[cluster]
mobile = crunch:cpubomb:web-a:20
)";

FleetScenario cluster_recovery_doc(bool with_crash) {
  std::string text = kClusterRecoveryScenario;
  std::string faults;
  if (with_crash) {
    faults =
        "fault_seed = 1\n"
        "fault = host-crash start=40 end=41\n";
  }
  text.replace(text.find("%%FAULTS%%"), std::string("%%FAULTS%%").size(),
               faults);
  std::istringstream in(text);
  return parse_fleet_scenario(in);
}

TEST(ClusterRecovery, CrashedMigrationRunMatchesCleanRun) {
  replay::RecordedRun clean =
      replay::record_run(replay::canonical_fleet(cluster_recovery_doc(false),
                                                 0));
  ASSERT_TRUE(clean.result.cluster.has_value());
  EXPECT_GE(clean.result.cluster->migrations, 1u);

  FleetSpec crashed_spec =
      replay::to_fleet_spec(replay::canonical_fleet(cluster_recovery_doc(true),
                                                    0));
  crashed_spec.checkpoint_every = 10;
  FleetResult crashed = run_fleet(crashed_spec);
  ASSERT_TRUE(crashed.cluster.has_value());
  EXPECT_GE(crashed.hosts.at(0).recovery.crashes, 1u);
  EXPECT_EQ(crashed.hosts.at(0).recovery.divergences, 0u);

  // The crash-class fault draws nothing from the RNG and the recovered
  // member replays its coordinator directives, so both the cluster event
  // log and every host stream must be byte-identical to the clean run.
  EXPECT_EQ(crashed.cluster->events, clean.result.cluster->events);
  ASSERT_EQ(crashed.hosts.size(), clean.result.hosts.size());
  for (std::size_t h = 0; h < crashed.hosts.size(); ++h) {
    expect_records_byte_identical(
        crashed.hosts[h].result.stayaway_records,
        clean.result.hosts[h].result.stayaway_records);
  }
}

TEST(ClusterRecovery, CrashedMigrationRunReplaysByteIdentical) {
  // Record the crashing coordinated run itself, then re-execute its
  // embedded scenario: migrations, admission bookkeeping and recovery
  // must all come back byte-for-byte.
  replay::RecordedRun run =
      replay::record_run(replay::canonical_fleet(cluster_recovery_doc(true),
                                                 0));
  ASSERT_TRUE(run.result.cluster.has_value());
  EXPECT_GE(run.result.cluster->migrations, 1u);
  EXPECT_GE(run.result.hosts.at(0).recovery.crashes, 1u);
  EXPECT_FALSE(run.log.cluster_events.empty());

  replay::ReplayReport report = replay::replay_run_log(run.log);
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.periods_checked, 0u);
}

// --- Pinned blob bytes --------------------------------------------------

/// The checkpoint format is a contract: a restore of a blob written by an
/// earlier build must keep working, so any codec change has to reproduce
/// these bytes exactly. Round-trip tests cannot catch a symmetric
/// rewrite (encode∘restore∘encode holds for any self-consistent format);
/// these digests can.
struct PinnedBlob {
  std::uint64_t fnv1a64;
  std::size_t size;
};

void expect_pinned(const std::string& blob, PinnedBlob want) {
  ASSERT_FALSE(blob.empty());
  EXPECT_EQ(util::fnv1a64(blob), want.fnv1a64) << "blob bytes drifted";
  EXPECT_EQ(blob.size(), want.size) << "blob size drifted";
}

TEST(CheckpointGolden, MidRetryLedgerBlobBytesPinned) {
  expect_pinned(run_supervised(mid_retry_spec()).final_checkpoint,
                {8816343807509186015ULL, 37764});
}

TEST(CheckpointGolden, FailsafeBlobBytesPinned) {
  expect_pinned(run_supervised(failsafe_spec()).final_checkpoint,
                {265700357250961628ULL, 37026});
}

TEST(CheckpointGolden, RingIngestBlobBytesPinned) {
  expect_pinned(run_supervised(ring_ingest_spec()).final_checkpoint,
                {12134603103207108948ULL, 51242});
}

TEST(CheckpointGolden, CoordinatorBlobBytesPinned) {
  FleetSpec spec = replay::to_fleet_spec(
      replay::canonical_fleet(cluster_recovery_doc(false), 0));
  spec.export_checkpoints = true;
  FleetResult r = run_fleet(spec);
  ASSERT_TRUE(r.cluster.has_value());
  EXPECT_GE(r.cluster->migrations, 1u);
  expect_pinned(r.cluster->final_coordinator,
                {13472215620403267928ULL, 6692});
}

}  // namespace
}  // namespace stayaway::harness
